//go:build amd64 && !purego

package tensor

// useAVX2 selects the assembly micro-kernels (gemm_amd64.s) under the GEMM
// drivers. It is decided once, at package init, from CPUID and XGETBV alone
// — never from a timing — so a run's kernel choice adds no variance.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state: CPUID.1:ECX OSXSAVE+AVX, XCR0 bits 1–2, CPUID.7.0:EBX AVX2.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func gemmPlain(dst *float64, ldd int, a *float64, ars, aps int, b *float64, ldb, k, nt int)

//go:noescape
func gemmGrouped(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, kg, nt int)

//go:noescape
func gemmTransposed(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, kg, nt int)
