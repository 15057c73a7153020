//go:build amd64 && !purego

package tensor

// useKernels selects the assembly micro-kernels (gemm_amd64.s) under the
// GEMM drivers. It is decided once, at package init, from CPUID and XGETBV
// alone — never from a timing — so a run's kernel choice adds no variance.
var useKernels = detectAVX2FMA()

// use512 adds the 512-bit plain kernel (gemmPlain512), the GeLU row kernels
// (activation_amd64.s) and the element-wise row kernels under AddRow and
// AddScaledRowTo (row_amd64.s) where the CPU has AVX-512F and the OS saves the ZMM state: XCR0 bits 5–7 and CPUID.7.0:EBX AVX512F. Its terms
// are the AVX2 kernel's and the scalar code's, so it changes no bit. On a
// 2-core AVX-512 host, switching the 512-bit GEMM off raises the repository
// benchmark's step_ms_min 5–15 % on all four workloads, the scalar GeLU rows
// in place of the row kernels raise it 6–54 % (ep_compute the most), and the
// element-wise row kernels in place of the scalar loops lower it 9–19 % on
// all four (ep_params the most: the §5 ring's reduce-scatter hop and SGD
// update). TestAVX2Kernels runs the kernel suites with it off.
var use512 = useKernels && detectAVX512()

// detectAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves
// the YMM state: CPUID.1:ECX FMA+OSXSAVE+AVX, XCR0 bits 1–2, CPUID.7.0:EBX
// AVX2. A CPU with AVX2 but no FMA runs the portable bodies, whose bits are
// the kernels' by construction.
func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func detectAVX512() bool {
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func gemmPlain(dst *float64, ldd int, a *float64, ars, aps int, b *float64, ldb, k, nt int, add bool)

//go:noescape
func gemmPlain512(dst *float64, ldd int, a *float64, ars, aps int, b *float64, ldb, k, nt int, add bool)

//go:noescape
func transposeTiles(dst *float64, ldd int, src *float64, lds int, rows, cols int)

//go:noescape
func geluRow512(dst, x *float64, n int) (special bool)

//go:noescape
func geluGradRow512(dst, dy, x *float64, n int) (special bool)

//go:noescape
func addRow512(dst, src *float64, n int)

//go:noescape
func addScaledRowTo512(dst, base, src *float64, a float64, n int)

//go:noescape
func scaleRow512(dst, src *float64, a float64, n int)
