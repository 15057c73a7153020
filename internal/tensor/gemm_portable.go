//go:build !amd64 || purego

package tensor

// Without the assembly the portable loop bodies (matmul.go) are the whole
// implementation; the constant lets the compiler drop the kernel branches.
const useAVX2 = false

func gemmPlain(dst *float64, ldd int, a *float64, ars, aps int, b *float64, ldb, k, nt int) {
	panic("tensor: no GEMM micro-kernel in this build")
}

func gemmGrouped(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, kg, nt int) {
	panic("tensor: no GEMM micro-kernel in this build")
}

func gemmTransposed(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, kg, nt int) {
	panic("tensor: no GEMM micro-kernel in this build")
}
