package tensor

// The MatMul size sweep demanded by the pooled runtime: the plain entry
// points allocate their destination per call, the pooled variants draw it
// from the free-list. b.ReportAllocs makes the difference visible in
// `go test -bench MatMul ./internal/tensor`.

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

var benchSizes = []int{128, 512, 1024}

func BenchmarkMatMul(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(1)
			x := RandN(rng, 1, n, n)
			y := RandN(rng, 1, n, n)
			b.ReportAllocs()
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := MatMul(x, y)
				_ = out
			}
		})
	}
}

func BenchmarkMatMulPooled(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(1)
			x := RandN(rng, 1, n, n)
			y := RandN(rng, 1, n, n)
			b.ReportAllocs()
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := GetUninit(n, n)
				MatMulInto(out, x, y)
				Put(out)
			}
		})
	}
}

func BenchmarkMatMulT2(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(1)
			x := RandN(rng, 1, n, n)
			y := RandN(rng, 1, n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := GetUninit(n, n)
				MatMulT2Into(out, x, y)
				Put(out)
			}
		})
	}
}

func BenchmarkBatchedMatMul(b *testing.B) {
	rng := xrand.New(1)
	x := RandN(rng, 1, 16, 128, 64)
	y := RandN(rng, 1, 16, 64, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BatchedMatMul(x, y)
	}
}

func BenchmarkMatMulT1(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(1)
			x := RandN(rng, 1, n, n)
			y := RandN(rng, 1, n, n)
			out := GetUninit(n, n)
			defer Put(out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulT1Into(out, x, y)
			}
		})
	}
}

// BenchmarkMatMulThreshold is the measurement behind
// matmulParallelThreshold: a product of exactly that many MACs on a pool of
// one and of two workers. The constant holds while width 2 does not lose.
func BenchmarkMatMulThreshold(b *testing.B) {
	const m, k = 64, 128
	n := matmulParallelThreshold / (m * k)
	rng := xrand.New(1)
	x := RandN(rng, 1, m, k)
	y := RandN(rng, 1, k, n)
	out := New(m, n)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MatMulInto(out, x, y)
			}
		})
	}
}

// BenchmarkGemmChunk runs the three products (and the accumulating form of
// aᵀ@b) at the expert-chunk shapes of the repository benchmark's four
// workloads, the way bench/probes.go shapes them: rows × M tokens against an
// M × H weight. "kernel" is the entry point on a pool of one — the
// micro-kernels where this build has them; "portable" is the loop body over
// the whole product, which is what every other build runs.
func BenchmarkGemmChunk(b *testing.B) {
	shapes := []struct{ rows, m, h int }{{29, 512, 16}, {40, 64, 384}, {20, 256, 320}, {77, 128, 128}}
	products := []struct {
		name     string
		dims     func(rows, m, h int) (dst, a, b [2]int)
		kernel   func(p *Pool, dst, a, b *Tensor)
		portable func(dst, a, b *Tensor)
	}{
		{"matmul", func(r, m, h int) (dst, a, b [2]int) { return [2]int{r, h}, [2]int{r, m}, [2]int{m, h} },
			(*Pool).MatMulInto, func(dst, a, b *Tensor) {
				matmulRows(dst.data, a.data, b.data, 0, a.shape[0], 0, b.shape[1], a.shape[1], b.shape[1])
			}},
		{"t1", func(r, m, h int) (dst, a, b [2]int) { return [2]int{m, h}, [2]int{r, m}, [2]int{r, h} },
			(*Pool).MatMulT1Into, func(dst, a, b *Tensor) {
				clear(dst.data)
				matmulT1Rows(dst.data, a.data, b.data, 0, a.shape[1], 0, b.shape[1], a.shape[0], a.shape[1], b.shape[1])
			}},
		{"t1add", func(r, m, h int) (dst, a, b [2]int) { return [2]int{m, h}, [2]int{r, m}, [2]int{r, h} },
			(*Pool).MatMulT1AddInto, func(dst, a, b *Tensor) {
				matmulT1Rows(dst.data, a.data, b.data, 0, a.shape[1], 0, b.shape[1], a.shape[0], a.shape[1], b.shape[1])
			}},
		{"t2", func(r, m, h int) (dst, a, b [2]int) { return [2]int{r, m}, [2]int{r, h}, [2]int{m, h} },
			(*Pool).MatMulT2Into, func(dst, a, b *Tensor) {
				matmulT2Rows(dst.data, a.data, b.data, 0, a.shape[0], 0, b.shape[0], 0, a.shape[1], b.shape[0])
			}},
	}
	pool := NewPool(1)
	for _, s := range shapes {
		for _, prod := range products {
			rng := xrand.New(1)
			dd, ad, bd := prod.dims(s.rows, s.m, s.h)
			dst, x, y := New(dd[0], dd[1]), RandN(rng, 1, ad[0], ad[1]), RandN(rng, 1, bd[0], bd[1])
			run := func(name string, fn func()) {
				b.Run(fmt.Sprintf("%s/rows=%d,M=%d,H=%d/%s", prod.name, s.rows, s.m, s.h, name), func(b *testing.B) {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						fn()
					}
					flop := 2 * float64(s.rows) * float64(s.m) * float64(s.h)
					b.ReportMetric(flop*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
			run("kernel", func() { prod.kernel(pool, dst, x, y) })
			run("portable", func() { prod.portable(dst, x, y) })
		}
	}
}
