package moe

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// softmoeLayer builds a SoftMoE (dense routing) layer for the DenseSlots
// strategy tests. slotsPer is chosen so E·slotsPer does not divide by
// R=4, exercising the slot padding path.
func softmoeLayer(t *testing.T, mixtral bool, slotsPer int) *MOELayer {
	t.Helper()
	const m, e, h = 32, 8, 48
	rng := xrand.New(19)
	g, err := NewSoftMoEGate(GateConfig{Experts: e, TopK: 1, Factor: 1}, m, slotsPer, rng)
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
		exps[i] = ex
	}
	layer, err := NewMOELayer(LayerConfig{M: m, Gate: g, Order: TutelOrder{}, Experts: exps})
	if err != nil {
		t.Fatal(err)
	}
	return layer
}

// strategyLayer builds the reference layer for one strategy: hard GShard
// routing for EP/ESP, SoftMoE for DenseSlots. The token count (96) and
// capacity factor are chosen so the per-rank slot shard pads at R=4.
func strategyLayer(t *testing.T, strat Strategy, mixtral bool) *MOELayer {
	t.Helper()
	if strat == StrategyDenseSlots {
		return softmoeLayer(t, mixtral, 3) // T=3 pads at R=4
	}
	return worldLayer(t, "gshard", TutelOrder{}, mixtral, false)
}

// TestWorldStrategiesBitIdentical is the strategy-interface acceptance
// test: every parallel strategy must produce bit-identical outputs, input
// gradients and parameter gradients to the sequential single-process
// MOELayer, across pipeline degrees r ∈ {1, 2, 4} and world sizes
// R ∈ {1, 4}, including the slot-padding path (capacities that do not
// divide by R).
func TestWorldStrategiesBitIdentical(t *testing.T) {
	x := tensor.RandN(xrand.New(61), 1, 4, 24, 32) // (B, L, M), N = 96
	dy := tensor.RandN(xrand.New(62), 1, 4, 24, 32)
	for _, strat := range Strategies() {
		layer := strategyLayer(t, strat, false)
		want := runSequentialLayer(t, layer, x, dy)
		for _, ranks := range []int{1, 4} {
			for _, r := range []int{1, 2, 4} {
				label := fmt.Sprintf("strategy=%s R=%d r=%d", strat, ranks, r)
				cfg := WorldConfig{Ranks: ranks, PipelineDegree: r, Strategy: strat}
				if strat == StrategyHybrid {
					// The genuine mixed path at R=4 (two groups of two);
					// R=1 only admits the degenerate g=1.
					cfg.GroupSize = max(ranks/2, 1)
				}
				got := runWorld(t, layer, cfg, x, dy, false)
				compareSnapshots(t, label, want, got)
			}
		}
	}
}

// TestWorldStrategiesBitIdenticalVariants covers the remaining strategy
// axes: Mixtral (two-band backward exchange under ESP), split
// forward/backward degrees, the sequential executor, hierarchical
// AlltoAll under DenseSlots, and a hidden width that does not divide by
// the rank count (ESP's ceiling column allocation).
func TestWorldStrategiesBitIdenticalVariants(t *testing.T) {
	x := tensor.RandN(xrand.New(63), 1, 96, 32)
	dy := tensor.RandN(xrand.New(64), 1, 96, 32)
	cases := []struct {
		name    string
		strat   Strategy
		mixtral bool
		cfg     WorldConfig
		seqExec bool
	}{
		{"esp-mixtral", StrategyESP, true, WorldConfig{Ranks: 4, PipelineDegree: 2}, false},
		{"esp-split-degrees", StrategyESP, false, WorldConfig{Ranks: 2, PipelineDegree: 4, PipelineDegreeBwd: 2}, false},
		{"esp-sequential-exec", StrategyESP, false, WorldConfig{Ranks: 4, PipelineDegree: 3}, true},
		{"esp-nodes", StrategyESP, false, WorldConfig{Ranks: 4, PipelineDegree: 2, GPUsPerNode: 2}, false},
		{"dense-mixtral", StrategyDenseSlots, true, WorldConfig{Ranks: 4, PipelineDegree: 2}, false},
		{"dense-sequential-exec", StrategyDenseSlots, false, WorldConfig{Ranks: 4, PipelineDegree: 4}, true},
	}
	for _, tc := range cases {
		tc.cfg.Strategy = tc.strat
		layer := strategyLayer(t, tc.strat, tc.mixtral)
		want := runSequentialLayer(t, layer, x, dy)
		got := runWorld(t, layer, tc.cfg, x, dy, tc.seqExec)
		compareSnapshots(t, tc.name, want, got)
	}
}

// TestWorldESPNarrowHidden: a hidden width the group does not divide leaves
// the trailing member a short column shard, and fewer columns than members
// leaves trailing members none at all; the pass must still be exact, under
// ESP and inside a hybrid group.
func TestWorldESPNarrowHidden(t *testing.T) {
	const m, e = 16, 4
	for _, tc := range []struct {
		h   int
		cfg WorldConfig
	}{
		{2, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP}}, // H < g: members 2 and 3 own nothing
		{5, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP}}, // H % g ≠ 0: shards 2, 2, 1, 0
		{1, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2}},
		{5, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2}},
	} {
		for _, mixtral := range []bool{false, true} {
			rng := xrand.New(23)
			g, err := NewGShardGate(GateConfig{Experts: e, TopK: 2, Factor: 1.25}, m, rng)
			if err != nil {
				t.Fatal(err)
			}
			exps := make([]Expert, e)
			for i := range exps {
				if mixtral {
					exps[i], err = NewMixtralFFN(m, tc.h, rng)
				} else {
					exps[i], err = NewGPTFFN(m, tc.h, rng)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			layer, err := NewMOELayer(LayerConfig{M: m, Gate: g, Order: TutelOrder{}, Experts: exps})
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.RandN(xrand.New(24), 1, 32, m)
			dy := tensor.RandN(xrand.New(25), 1, 32, m)
			want := runSequentialLayer(t, layer, x, dy)
			got := runWorld(t, layer, tc.cfg, x, dy, false)
			compareSnapshots(t, fmt.Sprintf("narrow hidden %s g=%d H=%d mixtral=%v", tc.cfg.Strategy, tc.cfg.GroupSize, tc.h, mixtral), want, got)
		}
	}
}

// TestWorldDenseFallbackExperts: custom experts, seen only through the
// Expert interface, run dense plans slot chunk by slot chunk and stay
// bit-identical — the DenseSlots counterpart of TestWorldFallbackExperts.
func TestWorldDenseFallbackExperts(t *testing.T) {
	layer := softmoeLayer(t, false, 3)
	for i, ex := range layer.cfg.Experts {
		layer.cfg.Experts[i] = stagedOnly{ex}
	}
	x := tensor.RandN(xrand.New(65), 1, 96, 32)
	dy := tensor.RandN(xrand.New(66), 1, 96, 32)
	want := runSequentialLayer(t, layer, x, dy)
	got := runWorld(t, layer, WorldConfig{Ranks: 4, PipelineDegree: 4, Strategy: StrategyDenseSlots}, x, dy, false)
	compareSnapshots(t, "dense custom experts", want, got)
}

// TestWorldStrategyValidation: strategy-aware validation names the
// strategy and the unsupported combination, at NewWorld and at Forward.
func TestWorldStrategyValidation(t *testing.T) {
	hard := worldLayer(t, "gshard", TutelOrder{}, false, false)
	dense := softmoeLayer(t, false, 2)

	// Unknown strategy.
	if _, err := NewWorld(hard, WorldConfig{Ranks: 2, Strategy: "fancy", PipelineDegree: 1}); err == nil || !strings.Contains(err.Error(), "unknown parallel strategy") {
		t.Fatalf("unknown strategy: %v", err)
	}

	// EP rejects dense plans, naming the strategy that accepts them.
	w, err := NewWorld(dense, WorldConfig{Ranks: 2, Strategy: StrategyEP, PipelineDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(xrand.New(5), 1, 16, 32)
	if _, _, err := w.Forward(x, false); err == nil ||
		!strings.Contains(err.Error(), string(StrategyEP)) || !strings.Contains(err.Error(), string(StrategyDenseSlots)) {
		t.Fatalf("ep on dense plan: %v", err)
	}

	// ESP rejects dense plans the same way.
	w, err = NewWorld(dense, WorldConfig{Ranks: 2, Strategy: StrategyESP, PipelineDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Forward(x, false); err == nil || !strings.Contains(err.Error(), string(StrategyDenseSlots)) {
		t.Fatalf("esp on dense plan: %v", err)
	}

	// DenseSlots rejects hard plans, naming the hard-routing strategies.
	w, err = NewWorld(hard, WorldConfig{Ranks: 2, Strategy: StrategyDenseSlots, PipelineDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Forward(tensor.RandN(xrand.New(6), 1, 16, 32), false); err == nil ||
		!strings.Contains(err.Error(), string(StrategyDenseSlots)) || !strings.Contains(err.Error(), string(StrategyEP)) ||
		!strings.Contains(err.Error(), string(StrategyESP)) || !strings.Contains(err.Error(), string(StrategyHybrid)) {
		t.Fatalf("dense-slots on hard plan: %v", err)
	}
}

// onlyPlanStreams fails on a pack task or a stream outside the one naming
// rule: inter, a group's intra:g<G>, a rank's compute:<r>.
func onlyPlanStreams(t *testing.T, w *World) {
	t.Helper()
	for _, iv := range w.LastTrace().Intervals {
		if iv.Task.Kind == sim.KindPack {
			t.Fatalf("plan contains a pack task %q", iv.Task.Label)
		}
		if s := iv.Task.Stream; s != "inter" && !strings.HasPrefix(s, "intra:g") && !strings.HasPrefix(s, "compute:") {
			t.Fatalf("%s task %q on stream %q, want inter, intra:g<G> or compute:<r>", iv.Task.Kind, iv.Task.Label, s)
		}
	}
}

// TestWorldESPTraceShape: the ESP schedule's AllGather and ReduceScatter
// stages appear as measured tasks on the one group's intra stream, the
// inter stream carries no AlltoAll, and nothing is packed.
func TestWorldESPTraceShape(t *testing.T) {
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(xrand.New(51), 1, 64, 32)
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	counts := func() map[string]int {
		onlyPlanStreams(t, w)
		kinds := map[string]int{}
		for _, iv := range w.LastTrace().Intervals {
			kinds[iv.Task.Kind]++
			if iv.Task.Kind == KindAG || iv.Task.Kind == KindRS {
				if iv.Task.Stream != "intra:g0" {
					t.Fatalf("%s task on stream %q, want intra:g0", iv.Task.Kind, iv.Task.Stream)
				}
			}
			if iv.Task.Kind == KindA2A {
				t.Fatalf("ESP plan contains an AlltoAll task %q", iv.Task.Label)
			}
		}
		return kinds
	}
	fwd := counts()
	// Two AllGather stages (input + hidden) and one ReduceScatter per chunk.
	if fwd[KindAG] != 4 || fwd[KindRS] != 2 {
		t.Fatalf("forward kinds = %v, want 4 AllGather + 2 ReduceScatter", fwd)
	}
	if _, err := w.Backward(cache, tensor.RandN(xrand.New(52), 1, 64, 32)); err != nil {
		t.Fatal(err)
	}
	bwd := counts()
	if bwd[KindAG] != 4 || bwd[KindRS] != 2 {
		t.Fatalf("backward kinds = %v, want 4 AllGather + 2 ReduceScatter", bwd)
	}
	if w.Stats().IntraVolume+w.Stats().InterVolume <= 0 {
		t.Fatal("no collective traffic recorded")
	}
	if w.Strategy() != StrategyESP {
		t.Fatalf("Strategy() = %q", w.Strategy())
	}
}

// TestWorldStepStrategies: the §5 gradient-sync emit points survive
// strategy plans. A stack of ESP worlds — and a mixed EP/ESP stack —
// steps to the same bit-identical parameters as the sequential reference,
// with the adaptive strategy's AllReduce slices genuinely embedded in the
// backward plans' inter stream (which under ESP carries nothing else).
func TestWorldStepStrategies(t *testing.T) {
	const layers, lr = 3, 0.05
	x := tensor.RandN(xrand.New(71), 1, 96, 32)
	dy := tensor.RandN(xrand.New(72), 1, 96, 32)

	refLayers := make([]*MOELayer, layers)
	for i := range refLayers {
		refLayers[i] = worldLayer(t, "gshard", TutelOrder{}, false, false)
	}
	want := refStep(t, refLayers, x, dy, lr)

	stacks := map[string][]Strategy{
		"esp":   {StrategyESP, StrategyESP, StrategyESP},
		"mixed": {StrategyEP, StrategyESP, StrategyEP},
	}
	for name, strats := range stacks {
		ws := make([]*World, layers)
		for i := 0; i < layers; i++ {
			l := worldLayer(t, "gshard", TutelOrder{}, false, false)
			w, err := NewWorld(l, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: strats[i]})
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		res, err := StepWorlds(ws, x, dy, StepConfig{LR: lr})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r := 0; r < 4; r++ {
			for k := range want {
				if res.RankParams[r][k] != want[k] {
					t.Fatalf("%s: rank %d param %d = %v, reference %v", name, r, k, res.RankParams[r][k], want[k])
				}
			}
		}
		if res.Report.HiddenBytes <= 0 {
			t.Fatalf("%s: adaptive step hid nothing: %+v", name, res.Report)
		}
		arInPlans := 0
		for _, tr := range res.Traces {
			for _, iv := range tr.Intervals {
				if iv.Task.Kind == "AllReduce" && iv.Task.Stream == "inter" {
					arInPlans++
				}
			}
		}
		if arInPlans == 0 {
			t.Fatalf("%s: no AllReduce slices embedded in backward plans", name)
		}
	}
}

// TestWorldSizedToProcs pins the resource contract at GOMAXPROCS 1 and 2:
// the EP and ESP worlds stay bit-identical to the sequential layer whatever
// the executor's k, and ResourcePlan's k workers of the kernel pool's width
// never exceed the machine.
func TestWorldSizedToProcs(t *testing.T) {
	x := tensor.RandN(xrand.New(65), 1, 96, 32)
	dy := tensor.RandN(xrand.New(66), 1, 96, 32)
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		goruntime.GOMAXPROCS(procs)
		for _, strat := range []Strategy{StrategyEP, StrategyESP} {
			layer := strategyLayer(t, strat, false)
			want := runSequentialLayer(t, layer, x, dy)

			w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			layer.ZeroGrad()
			y, cache, err := w.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			dx, err := w.Backward(cache, dy)
			if err != nil {
				t.Fatal(err)
			}
			compareSnapshots(t, fmt.Sprintf("%s at GOMAXPROCS=%d", strat, procs), want,
				worldSnapshot{y: y, dx: dx, grads: snapGrads(layer)})
			width, k := w.ResourcePlan()
			if width < 1 || k < 1 || width*k > procs {
				t.Fatalf("%s at GOMAXPROCS=%d: %d workers × width %d", strat, procs, k, width)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
