//go:build !amd64 || purego

package tensor

// Without the assembly the portable loop bodies (matmul.go) are the whole
// implementation; the constant lets the compiler drop the kernel branches.
const useKernels, use512 = false, false

func gemmPlain(dst *float64, ldd int, a *float64, ars, aps int, b *float64, ldb, k, nt int, add bool) {
	panic("tensor: no GEMM micro-kernel in this build")
}

func gemmPlain512(dst *float64, ldd int, a *float64, ars, aps int, b *float64, ldb, k, nt int, add bool) {
	panic("tensor: no GEMM micro-kernel in this build")
}

func transposeTiles(dst *float64, ldd int, src *float64, lds int, rows, cols int) {
	panic("tensor: no GEMM micro-kernel in this build")
}

func geluRow512(dst, x *float64, n int) (special bool) {
	panic("tensor: no activation kernel in this build")
}

func geluGradRow512(dst, dy, x *float64, n int) (special bool) {
	panic("tensor: no activation kernel in this build")
}
