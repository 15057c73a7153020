package tensor

// The MatMul size sweep demanded by the pooled runtime: the plain rows
// allocate their destination per call, the pooled variants draw it from
// the free-list. b.ReportAllocs makes the difference visible in
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
				MatMulInto(New(n, n), x, y)
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

// BenchmarkMatMulT1 is the measurement behind t1Block and t1PageRow: the
// square products of the sweep above, then the aᵀ@b products a step of each
// repository-benchmark workload runs (t1Shapes) through matmulT1Range on
// one goroutine, in one block (depth=k) and in blocks of 32 and 16, with
// the operands hot (one set, reused) and cold (sets cycled through more than
// L2, as a step's token blocks arrive from the exchange). t1Depth picks
// blocks of t1Block where they win cold and do not lose hot.
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
	const coldBytes = 8 << 20 // past the reference box's 2 MiB of L2 per core, twice over
	for _, s := range t1Shapes {
		for _, cold := range []bool{false, true} {
			sets := 1
			if cold {
				sets = max(2, coldBytes/(8*(s.k*s.m+s.k*s.n+s.m*s.n)))
			}
			rng := xrand.New(1)
			as, bs, ds := make([][]float64, sets), make([][]float64, sets), make([][]float64, sets)
			for i := range sets {
				as[i], bs[i], ds[i] = RandN(rng, 1, s.k, s.m).data, RandN(rng, 1, s.k, s.n).data, make([]float64, s.m*s.n)
			}
			cache := "hot"
			if cold {
				cache = "cold"
			}
			for _, depth := range []int{s.k, 32, 16} {
				d := fmt.Sprint(depth)
				if depth == s.k {
					d = "k"
				}
				b.Run(fmt.Sprintf("%s/k=%d,m=%d,n=%d/%s/depth=%s", s.name, s.k, s.m, s.n, cache, d), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						j := i % sets
						matmulT1Range(ds[j], as[j], bs[j], 0, s.m, s.k, s.m, s.n, depth, false)
					}
					b.ReportMetric(2*float64(s.k*s.m*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}

// t1Shapes are the aᵀ@b products (k, m, n) a step of each repository
// benchmark workload runs: its experts' weight gradients in Finish
// (dW1 = xᵀ·da at (rows, M, H), dW2 = aᵀ·dy at (rows, H, M)) and its gates'
// dWg = xᵀ·dLogits (N tokens); and the repository benchmark's
// tensor.matmul_t1_gflops probe, whose depth is one pipeline chunk.
var t1Shapes = []struct {
	name    string
	k, m, n int
}{
	{"ep_tokens.dW1", 116, 512, 16}, {"ep_tokens.dW2", 116, 16, 512}, {"ep_tokens.dWg", 384, 512, 8},
	{"ep_tokens.probe", 29, 512, 16},
	{"ep_compute.dW1", 76, 64, 384}, {"ep_compute.dW2", 76, 384, 64}, {"ep_compute.dWg", 256, 64, 8},
	{"ep_params.dW1", 20, 256, 320}, {"ep_params.dW2", 20, 320, 256}, {"ep_params.dWg", 64, 256, 8},
	{"mixed_ckpt.dW1", 48, 128, 128}, {"mixed_ckpt.dWg", 160, 128, 8}, {"mixed_ckpt.xmoe.dWg", 160, 128, 16},
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
