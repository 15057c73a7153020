package moe

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// stagedOnly hides a built-in expert behind the Expert interface, so a
// strategy is seen to drive it as it would a custom expert: through the
// contract alone, with no shortcut on the concrete type.
type stagedOnly struct{ Expert }

// worldLayer builds one layer per gate kind with real experts, each wrapped
// in stagedOnly when wrap is set.
func worldLayer(t *testing.T, gate string, order Order, mixtral, wrap bool) *MOELayer {
	t.Helper()
	const m, e, topK, h = 32, 8, 2, 48
	rng := xrand.New(17)
	gcfg := GateConfig{Experts: e, TopK: topK, Factor: 1.25}
	var g Gate
	var err error
	switch gate {
	case "gshard":
		g, err = NewGShardGate(gcfg, m, rng)
	case "sigmoid":
		g, err = NewSigmoidGate(gcfg, m, rng)
	case "xmoe":
		g, err = NewXMoEGate(gcfg, m, 8, 0.3, rng)
	case "ec":
		g, err = NewECGate(gcfg, m, rng)
	default:
		t.Fatalf("unknown gate %q", gate)
	}
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]Expert, e)
	for i := range exps {
		var ex Expert
		if mixtral {
			ex, err = NewMixtralFFN(m, h, rng)
		} else {
			ex, err = NewGPTFFN(m, h, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		if wrap {
			ex = stagedOnly{ex}
		}
		exps[i] = ex
	}
	layer, err := NewMOELayer(LayerConfig{M: m, Gate: g, Order: order, Experts: exps})
	if err != nil {
		t.Fatal(err)
	}
	return layer
}

// snapshot captures everything a pass produces.
type worldSnapshot struct {
	y, dx *tensor.Tensor
	grads []*tensor.Tensor
}

func snapGrads(l *MOELayer) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range l.Params() {
		out = append(out, p.G.Clone())
	}
	return out
}

func runSequentialLayer(t *testing.T, l *MOELayer, x, dy *tensor.Tensor) worldSnapshot {
	t.Helper()
	l.ZeroGrad()
	y, cache, err := l.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := l.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	return worldSnapshot{y: y, dx: dx, grads: snapGrads(l)}
}

func runWorld(t *testing.T, l *MOELayer, cfg WorldConfig, x, dy *tensor.Tensor, sequentialExec bool) worldSnapshot {
	t.Helper()
	w, err := NewWorld(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.SetSequential(sequentialExec)
	l.ZeroGrad()
	y, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := w.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	return worldSnapshot{y: y, dx: dx, grads: snapGrads(l)}
}

func compareSnapshots(t *testing.T, label string, want, got worldSnapshot) {
	t.Helper()
	if got.y.MaxAbsDiff(want.y) != 0 {
		t.Fatalf("%s: forward output not bit-identical (max diff %v)", label, got.y.MaxAbsDiff(want.y))
	}
	if got.dx.MaxAbsDiff(want.dx) != 0 {
		t.Fatalf("%s: input gradient not bit-identical (max diff %v)", label, got.dx.MaxAbsDiff(want.dx))
	}
	if len(want.grads) != len(got.grads) {
		t.Fatalf("%s: %d vs %d parameter gradients", label, len(want.grads), len(got.grads))
	}
	for i := range want.grads {
		if got.grads[i].MaxAbsDiff(want.grads[i]) != 0 {
			t.Fatalf("%s: param grad %d not bit-identical (max diff %v)", label, i, got.grads[i].MaxAbsDiff(want.grads[i]))
		}
	}
}

// TestWorldBitIdentical is the tentpole acceptance test: the pipelined
// multi-rank pass must produce bit-identical outputs, input gradients and
// parameter gradients to the sequential single-rank MOELayer for every
// hard-routing gate, across pipeline degrees r ∈ {1, 2, 4} and world
// sizes R ∈ {1, 4}. The token count is chosen so the per-expert capacity
// (30) does not divide by R=4, exercising the slot padding path.
func TestWorldBitIdentical(t *testing.T) {
	x := tensor.RandN(xrand.New(21), 1, 4, 24, 32) // (B, L, M), N = 96
	dy := tensor.RandN(xrand.New(22), 1, 4, 24, 32)
	for _, gate := range []string{"gshard", "sigmoid", "xmoe", "ec"} {
		layer := worldLayer(t, gate, TutelOrder{}, false, false)
		want := runSequentialLayer(t, layer, x, dy)
		for _, ranks := range []int{1, 4} {
			for _, r := range []int{1, 2, 4} {
				label := fmt.Sprintf("gate=%s R=%d r=%d", gate, ranks, r)
				got := runWorld(t, layer, WorldConfig{Ranks: ranks, PipelineDegree: r, Strategy: StrategyEP}, x, dy, false)
				compareSnapshots(t, label, want, got)
			}
		}
	}
}

// TestWorldBitIdenticalVariants covers the remaining axes: the GShard
// einsum order, both hierarchical AlltoAll algorithms, Mixtral experts,
// split forward/backward degrees, and the sequential executor mode.
func TestWorldBitIdenticalVariants(t *testing.T) {
	x := tensor.RandN(xrand.New(31), 1, 96, 32)
	dy := tensor.RandN(xrand.New(32), 1, 96, 32)
	cases := []struct {
		name    string
		order   Order
		mixtral bool
		cfg     WorldConfig
		seqExec bool
	}{
		{"gshard-order", GShardOrder{}, false, WorldConfig{Ranks: 4, PipelineDegree: 3, Strategy: StrategyEP}, false},
		{"1dh", TutelOrder{}, false, WorldConfig{Ranks: 4, PipelineDegree: 2, Algo: comm.A2A1DH, GPUsPerNode: 2, Strategy: StrategyEP}, false},
		{"2dh", TutelOrder{}, false, WorldConfig{Ranks: 4, PipelineDegree: 4, Algo: comm.A2A2DH, GPUsPerNode: 2, Strategy: StrategyEP}, false},
		{"mixtral", TutelOrder{}, true, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP}, false},
		{"fwd-bwd-degrees", TutelOrder{}, false, WorldConfig{Ranks: 2, PipelineDegree: 4, PipelineDegreeBwd: 2, Strategy: StrategyEP}, false},
		{"sequential-exec", TutelOrder{}, false, WorldConfig{Ranks: 4, PipelineDegree: 4, Strategy: StrategyEP}, true},
	}
	for _, tc := range cases {
		layer := worldLayer(t, "gshard", tc.order, tc.mixtral, false)
		want := runSequentialLayer(t, layer, x, dy)
		got := runWorld(t, layer, tc.cfg, x, dy, tc.seqExec)
		compareSnapshots(t, tc.name, want, got)
	}
}

// TestWorldFallbackExperts: custom experts, seen only through the Expert
// interface, run chunk by chunk under EP and stay bit-identical.
func TestWorldFallbackExperts(t *testing.T) {
	x := tensor.RandN(xrand.New(41), 1, 96, 32)
	dy := tensor.RandN(xrand.New(42), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, true)
	want := runSequentialLayer(t, layer, x, dy)
	got := runWorld(t, layer, WorldConfig{Ranks: 4, PipelineDegree: 4, Strategy: StrategyEP}, x, dy, false)
	compareSnapshots(t, "custom experts", want, got)
}

// TestWorldRejects covers the configuration errors.
func TestWorldRejects(t *testing.T) {
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	if _, err := NewWorld(layer, WorldConfig{Ranks: 3, PipelineDegree: 1, Strategy: StrategyEP}); err == nil {
		t.Fatal("8 experts across 3 ranks must fail")
	}
	if _, err := NewWorld(layer, WorldConfig{Ranks: 4, GPUsPerNode: 3, PipelineDegree: 1, Strategy: StrategyEP}); err == nil {
		t.Fatal("4 ranks in nodes of 3 must fail")
	}
	if _, err := NewWorld(nil, WorldConfig{Ranks: 1, PipelineDegree: 1, Strategy: StrategyEP}); err == nil {
		t.Fatal("nil layer must fail")
	}

	// Aliased experts cannot be sharded across ranks.
	rng := xrand.New(3)
	shared, err := NewGPTFFN(32, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	gate, err := NewGShardGate(GateConfig{Experts: 2, TopK: 1, Factor: 1.0}, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	aliased, err := NewMOELayer(LayerConfig{M: 32, Gate: gate, Order: TutelOrder{}, Experts: []Expert{shared, shared}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorld(aliased, WorldConfig{Ranks: 2, PipelineDegree: 1, Strategy: StrategyEP}); err == nil {
		t.Fatal("aliased experts must fail")
	}

	// Dense (SoftMoE) routing has no token dimension to chunk.
	soft, err := NewSoftMoEGate(GateConfig{Experts: 4, TopK: 1, Factor: 1}, 32, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]Expert, 4)
	for i := range exps {
		if exps[i], err = NewGPTFFN(32, 16, rng); err != nil {
			t.Fatal(err)
		}
	}
	denseLayer, err := NewMOELayer(LayerConfig{M: 32, Gate: soft, Order: TutelOrder{}, Experts: exps})
	if err != nil {
		t.Fatal(err)
	}
	dw, err := NewWorld(denseLayer, WorldConfig{Ranks: 2, PipelineDegree: 1, Strategy: StrategyEP})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dw.Forward(tensor.RandN(xrand.New(5), 1, 16, 32), false); err == nil {
		t.Fatal("dense plan must be rejected at Forward")
	}
}

// TestWorldTraceShape: the measured trace of a pipelined pass exposes the
// expected streams and a positive makespan, and the recorded plan can
// re-simulate with measured durations.
func TestWorldTraceShape(t *testing.T) {
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(xrand.New(51), 1, 64, 32)
	if _, _, err := w.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	tr := w.LastTrace()
	if tr == nil || tr.Makespan <= 0 {
		t.Fatalf("missing or empty forward trace: %+v", tr)
	}
	streams := map[string]bool{}
	for _, iv := range tr.Intervals {
		streams[iv.Task.Stream] = true
	}
	for _, want := range []string{"inter", "compute:0", "compute:3"} {
		if !streams[want] {
			t.Fatalf("trace missing stream %q (have %v)", want, streams)
		}
	}
	// EP moves every row once, inside the AlltoAll: no pack stage, so no
	// per-rank staging stream.
	if len(streams) != 5 {
		t.Fatalf("EP trace has streams %v, want inter + compute:0..3 only", streams)
	}
	if w.LastPlan() == nil {
		t.Fatal("missing recorded plan")
	}
	if pred := w.LastPlan().Simulate(); pred.Makespan <= 0 {
		t.Fatalf("structural simulation returned %v", pred.Makespan)
	}
	if w.Stats().IntraVolume+w.Stats().InterVolume <= 0 {
		t.Fatal("no AlltoAll traffic recorded")
	}
}
