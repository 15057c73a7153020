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

// BenchmarkGemmChunk runs a@b and a@bᵀ at the expert windows the
// repository benchmark's four workloads issue: one chunk's rows in each of
// the four token-side shards, the shards stride rows apart (rows × M tokens
// against an M × H weight; a@bᵀ is the input gradient's (rows, H) times the
// transpose of an (M, H) weight). Three forms, on a pool of one:
// "portable" is the loop body per window, which is what every build without
// the kernels runs; "window" is one product per window, the way the step
// drove them before window sets — every window streams (for a@bᵀ,
// transposes) the whole weight, and an a@b window shorter than a tile never
// reaches the kernels; "set" is the four windows as one window-set product.
func BenchmarkGemmChunk(b *testing.B) {
	const count = 4
	shapes := []struct{ rows, m, h, stride int }{{7, 512, 16, 29}, {10, 64, 384, 20}, {3, 256, 320, 5}, {6, 128, 128, 12}}
	products := []struct {
		name     string
		kn       func(m, h int) (k, n int) // the width of a and of dst
		portable func(dst, a, b []float64, m, k, n int)
		window   func(p *Pool, dst, a, b []float64, m, k, n int)
		set      func(p *Pool, dst *Tensor, w Windows, a, b *Tensor)
	}{
		{"matmul", func(m, h int) (int, int) { return m, h },
			func(dst, a, b []float64, m, k, n int) { matmulRows(dst, a, b, 0, m, 0, n, k, n) },
			(*Pool).matmulInto,
			func(p *Pool, dst *Tensor, w Windows, a, b *Tensor) { p.MatMulRowsInto(dst, w, a, w, b) }},
		{"t2", func(m, h int) (int, int) { return h, m },
			func(dst, a, b []float64, m, k, n int) { matmulT2Rows(dst, a, b, 0, m, k, n) },
			func(p *Pool, dst, a, b []float64, m, k, n int) {
				p.MatMulT2RowsInto(FromData(dst, m, n), Window(0, m), FromData(a, m, k), Window(0, m), FromData(b, n, k), 0, n)
			},
			func(p *Pool, dst *Tensor, w Windows, a, b *Tensor) {
				p.MatMulT2RowsInto(dst, w, a, w, b, 0, b.shape[0])
			}},
	}
	pool := NewPool(1)
	for _, s := range shapes {
		w := Windows{N: s.rows, Stride: s.stride, Count: count}
		for _, prod := range products {
			rng := xrand.New(1)
			k, n := prod.kn(s.m, s.h)
			x, dst := RandN(rng, 1, count*s.stride, k), New(count*s.stride, n)
			y := RandN(rng, 1, s.m, s.h) // b: (M, H) for a@b, (n, k) for a@bᵀ
			perWindow := func(fn func(d, a []float64)) func() {
				return func() {
					for c := 0; c < count; c++ {
						lo := c * s.stride
						fn(dst.data[lo*n:(lo+s.rows)*n], x.data[lo*k:(lo+s.rows)*k])
					}
				}
			}
			run := func(name string, fn func()) {
				b.Run(fmt.Sprintf("%s/rows=%dx%d,M=%d,H=%d/%s", prod.name, s.rows, count, s.m, s.h, name), func(b *testing.B) {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						fn()
					}
					flop := 2 * float64(count*s.rows) * float64(s.m) * float64(s.h)
					b.ReportMetric(flop*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
			run("portable", perWindow(func(d, a []float64) { prod.portable(d, a, y.data, s.rows, k, n) }))
			run("window", perWindow(func(d, a []float64) { prod.window(pool, d, a, y.data, s.rows, k, n) }))
			run("set", func() { prod.set(pool, dst, w, x, y) })
		}
	}
}
