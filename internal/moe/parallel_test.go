package moe

import (
	"runtime"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// testLayer builds an eight-expert GShard layer of GPT experts.
func testLayer(t *testing.T) *MOELayer {
	t.Helper()
	const m, e, topK = 32, 8, 2
	rng := xrand.New(5)
	gate, err := NewGShardGate(GateConfig{Experts: e, TopK: topK, Factor: 1.25}, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]Expert, e)
	for i := range exps {
		if exps[i], err = NewGPTFFN(m, 64, rng); err != nil {
			t.Fatal(err)
		}
	}
	layer, err := NewMOELayer(LayerConfig{M: m, Gate: gate, Order: TutelOrder{}, Experts: exps})
	if err != nil {
		t.Fatal(err)
	}
	return layer
}

// TestParallelExpertsBitIdentical is the acceptance check for the parallel
// expert loop: forward outputs, input gradients and every parameter
// gradient must be bit-identical at any worker-pool width, because
// parallelism shards whole experts (and whole GEMM rows) without
// reordering any single element's accumulation.
func TestParallelExpertsBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	x := tensor.RandN(xrand.New(9), 1, 64, 32)
	dy := tensor.RandN(xrand.New(10), 1, 64, 32)

	type snapshot struct {
		y, dx *tensor.Tensor
		grads []*tensor.Tensor
	}
	run := func(workers int) snapshot {
		runtime.GOMAXPROCS(workers)
		layer := testLayer(t)
		y, cache, err := layer.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		layer.ZeroGrad()
		dx, err := layer.Backward(cache, dy)
		if err != nil {
			t.Fatal(err)
		}
		var grads []*tensor.Tensor
		for _, p := range layer.Params() {
			grads = append(grads, p.G.Clone())
		}
		return snapshot{y: y, dx: dx, grads: grads}
	}

	seq := run(1)
	for _, w := range []int{2, 4, 8} {
		par := run(w)
		if !par.y.SameBits(seq.y) {
			t.Fatalf("workers=%d: forward output not bit-identical", w)
		}
		if !par.dx.SameBits(seq.dx) {
			t.Fatalf("workers=%d: input gradient not bit-identical", w)
		}
		for i := range seq.grads {
			if !par.grads[i].SameBits(seq.grads[i]) {
				t.Fatalf("workers=%d: param grad %d not bit-identical", w, i)
			}
		}
	}
}

// TestSharedExpertInstanceRejected: the same Expert instance registered at
// several indices (weight tying) would race, and an expert of a
// non-comparable type cannot be told apart from another, so NewMOELayer
// refuses both: every layer it builds has provably distinct experts, which
// every World may run at once.
func TestSharedExpertInstanceRejected(t *testing.T) {
	const m, e = 16, 4
	rng := xrand.New(2)
	gate, err := NewGShardGate(GateConfig{Experts: e, TopK: 1, Factor: 2}, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewGPTFFN(m, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]Expert, e)
	for i := range exps {
		exps[i] = shared
	}
	if _, err := NewMOELayer(LayerConfig{M: m, Gate: gate, Order: TutelOrder{}, Experts: exps}); err == nil {
		t.Fatal("aliased expert list not detected")
	}
	for i := range exps {
		if exps[i], err = NewGPTFFN(m, 32, rng); err != nil {
			t.Fatal(err)
		}
	}
	exps[1] = uncomparableExpert{Expert: exps[1]}
	if _, err := NewMOELayer(LayerConfig{M: m, Gate: gate, Order: TutelOrder{}, Experts: exps}); err == nil {
		t.Fatal("expert of a non-comparable type not refused")
	}
}

// uncomparableExpert is an Expert whose dynamic type has no ==.
type uncomparableExpert struct {
	Expert
	_ []int
}
