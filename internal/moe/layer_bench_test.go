package moe

// Benchmarks for the real-compute MoE hot path: a full layer forward and
// backward with real GPTFFN experts, at the issue's canonical sizes
// (capacity T=128, embedding M=256, E ∈ {8, 32}). `go test -bench MoELayer
// -benchmem ./internal/moe` shows both the kernel pool's speedup (on
// multi-core runners: the layer's one-rank World runs its experts one after
// another, each GEMM fanned out onto the default pool) and its allocation
// profile.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// benchLayer builds a GShard-gated, Tutel-ordered layer of E GPTFFN experts
// sized so every expert's block is (128, 256), plus a matching input.
func benchLayer(b testing.TB, experts int) (*MOELayer, *tensor.Tensor) {
	b.Helper()
	const m, topK = 256, 2
	tokens := experts * 128 / topK // capacity f·k·N/E = 128 at f=1
	rng := xrand.New(42)
	gate, err := NewGShardGate(GateConfig{Experts: experts, TopK: topK, Factor: 1}, m, rng)
	if err != nil {
		b.Fatal(err)
	}
	exps := make([]Expert, experts)
	for i := range exps {
		e, err := NewGPTFFN(m, 4*m, rng)
		if err != nil {
			b.Fatal(err)
		}
		exps[i] = e
	}
	layer, err := NewMOELayer(LayerConfig{M: m, Gate: gate, Order: TutelOrder{}, Experts: exps})
	if err != nil {
		b.Fatal(err)
	}
	return layer, tensor.RandN(rng, 1, tokens, m)
}

func BenchmarkMoELayerForward(b *testing.B) {
	for _, e := range []int{8, 32} {
		b.Run(fmt.Sprintf("E=%d", e), func(b *testing.B) {
			layer, x := benchLayer(b, e)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, cache, err := layer.Forward(x, false)
				if err != nil {
					b.Fatal(err)
				}
				layer.Release(cache)
			}
		})
	}
}

func BenchmarkMoELayerBackward(b *testing.B) {
	for _, e := range []int{8, 32} {
		b.Run(fmt.Sprintf("E=%d", e), func(b *testing.B) {
			layer, x := benchLayer(b, e)
			dy := tensor.RandN(xrand.New(7), 1, x.Dim(0), x.Dim(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, cache, err := layer.Forward(x, true)
				if err != nil {
					b.Fatal(err)
				}
				layer.ZeroGrad()
				b.StartTimer()
				if _, err := layer.Backward(cache, dy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMoELayerForwardSequential pins the baseline the parallel path is
// measured against: identical layer, worker pool forced to width 1.
func BenchmarkMoELayerForwardSequential(b *testing.B) {
	for _, e := range []int{8, 32} {
		b.Run(fmt.Sprintf("E=%d", e), func(b *testing.B) {
			layer, x := benchLayer(b, e)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, cache, err := layer.Forward(x, false)
				if err != nil {
					b.Fatal(err)
				}
				layer.Release(cache)
			}
		})
	}
}
