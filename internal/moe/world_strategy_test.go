package moe

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// softmoeLayer builds a SoftMoE (dense routing) layer. slotsPer is chosen
// so E·slotsPer does not divide by R=4, exercising the slot padding path.
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

// routingLayer builds the reference layer for one routing kind: SoftMoE
// (dense) or hard GShard routing. The token count (96) and capacity factor
// are chosen so the per-rank slot shard pads at R=4.
func routingLayer(t *testing.T, dense, mixtral bool) *MOELayer {
	t.Helper()
	if dense {
		return softmoeLayer(t, mixtral, 3) // T=3 pads at R=4
	}
	return worldLayer(t, "gshard", TutelOrder{}, mixtral, false)
}

// strategyLayer builds the reference layer under the gate StrategyAuto
// pairs with a strategy's name: dense routing for DenseSlots, hard for the
// rest.
func strategyLayer(t *testing.T, strat Strategy, mixtral bool) *MOELayer {
	t.Helper()
	return routingLayer(t, strat == StrategyDenseSlots, mixtral)
}

// allStrategies is every named strategy; strategyConfig gives Hybrid the
// genuine mixed path at R=4 (two groups of two) and R/2 elsewhere (R=1
// only admits the degenerate g=1).
var allStrategies = []Strategy{StrategyEP, StrategyESP, StrategyDenseSlots, StrategyHybrid}

func strategyConfig(strat Strategy, cfg WorldConfig) WorldConfig {
	cfg.Strategy = strat
	if strat == StrategyHybrid {
		cfg.GroupSize = max(cfg.Ranks/2, 1)
	}
	return cfg
}

// TestWorldStrategiesBitIdentical is the strategy-interface acceptance
// test: every parallel strategy, over hard and dense routing alike, must
// produce bit-identical outputs, input gradients and parameter gradients
// to the sequential single-process MOELayer, with GPT and Mixtral experts,
// across pipeline degrees r ∈ {1, 2, 3, 4} and world sizes R ∈ {1, 2, 4},
// including the slot-padding path (capacities that do not divide by R).
func TestWorldStrategiesBitIdentical(t *testing.T) {
	x := tensor.RandN(xrand.New(61), 1, 4, 24, 32) // (B, L, M), N = 96
	dy := tensor.RandN(xrand.New(62), 1, 4, 24, 32)
	for _, dense := range []bool{false, true} {
		for _, mixtral := range []bool{false, true} {
			layer := routingLayer(t, dense, mixtral)
			want := runSequentialLayer(t, layer, x, dy)
			for _, strat := range allStrategies {
				for _, ranks := range []int{1, 2, 4} {
					for _, r := range []int{1, 2, 3, 4} {
						cfg := strategyConfig(strat, WorldConfig{Ranks: ranks, PipelineDegree: r})
						label := fmt.Sprintf("strategy=%s dense=%v mixtral=%v R=%d g=%d r=%d", strat, dense, mixtral, ranks, cfg.GroupSize, r)
						compareSnapshots(t, label, want, runWorld(t, layer, cfg, x, dy, false))
					}
				}
			}
		}
	}
}

// TestWorldStrategiesBitIdenticalVariants covers the remaining strategy
// axes for every strategy over hard and dense routing: Mixtral (two-band
// backward exchange under ESP) at split forward/backward degrees, the
// sequential executor, and hierarchical AlltoAll over nodes of two.
func TestWorldStrategiesBitIdenticalVariants(t *testing.T) {
	x := tensor.RandN(xrand.New(63), 1, 96, 32)
	dy := tensor.RandN(xrand.New(64), 1, 96, 32)
	cases := []struct {
		name    string
		mixtral bool
		cfg     WorldConfig
		seqExec bool
	}{
		{"mixtral-split-degrees", true, WorldConfig{Ranks: 4, PipelineDegree: 2, PipelineDegreeBwd: 3}, false},
		{"split-degrees", false, WorldConfig{Ranks: 2, PipelineDegree: 4, PipelineDegreeBwd: 2}, false},
		{"sequential-exec", false, WorldConfig{Ranks: 4, PipelineDegree: 3}, true},
		{"nodes-1dh", false, WorldConfig{Ranks: 4, PipelineDegree: 2, GPUsPerNode: 2, Algo: comm.A2A1DH}, false},
	}
	for _, dense := range []bool{false, true} {
		for _, tc := range cases {
			layer := routingLayer(t, dense, tc.mixtral)
			want := runSequentialLayer(t, layer, x, dy)
			for _, strat := range allStrategies {
				got := runWorld(t, layer, strategyConfig(strat, tc.cfg), x, dy, tc.seqExec)
				compareSnapshots(t, fmt.Sprintf("%s %s dense=%v", tc.name, strat, dense), want, got)
			}
		}
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

// TestWorldStrategyValidation: an unknown strategy fails at NewWorld,
// naming it, and a strategy runs either routing kind: EP and ESP over dense
// plans and DenseSlots over hard ones are bit-identical to the sequential
// layer.
func TestWorldStrategyValidation(t *testing.T) {
	hard := worldLayer(t, "gshard", TutelOrder{}, false, false)
	dense := softmoeLayer(t, false, 2)

	// Unknown strategy.
	if _, err := NewWorld(hard, WorldConfig{Ranks: 2, Strategy: "fancy", PipelineDegree: 1}); err == nil || !strings.Contains(err.Error(), "unknown parallel strategy") {
		t.Fatalf("unknown strategy: %v", err)
	}

	x := tensor.RandN(xrand.New(5), 1, 16, 32)
	dy := tensor.RandN(xrand.New(6), 1, 16, 32)
	for _, tc := range []struct {
		layer *MOELayer
		strat Strategy
	}{{dense, StrategyEP}, {dense, StrategyESP}, {hard, StrategyDenseSlots}} {
		want := runSequentialLayer(t, tc.layer, x, dy)
		got := runWorld(t, tc.layer, WorldConfig{Ranks: 2, Strategy: tc.strat, PipelineDegree: 1}, x, dy, false)
		compareSnapshots(t, fmt.Sprintf("%s over dense=%v", tc.strat, tc.layer == dense), want, got)
	}
}

// onlyPlanStreams fails on a pack task or a stream outside the one naming
// rule: inter, a group's intra:g<G>, a rank's compute:<r>, and route.
func onlyPlanStreams(t *testing.T, w *World) {
	t.Helper()
	for _, iv := range w.LastTrace().Intervals {
		if iv.Task.Kind == sim.KindPack {
			t.Fatalf("plan contains a pack task %q", iv.Task.Label)
		}
		if s := iv.Task.Stream; s != "inter" && s != "route" && !strings.HasPrefix(s, "intra:g") && !strings.HasPrefix(s, "compute:") {
			t.Fatalf("%s task %q on stream %q, want inter, intra:g<G>, compute:<r> or route", iv.Task.Kind, iv.Task.Label, s)
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
		sameRow(t, name, res, want)
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
