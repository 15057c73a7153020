package moe

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestWorldHybridBitIdentical is the hybrid acceptance test: forward and
// backward bit-identical to the sequential layer across the full
// (GroupSize, degree) grid g ∈ {1, 2, R} × r ∈ {1, 2, 4} at R=4 and the
// interior widths g ∈ {2, 4} at R=8 (four and two groups, one expert per
// rank), for every hard-routing gate. The token count (96, capacity 30)
// divides by neither rank count, exercising the slot padding path
// throughout.
func TestWorldHybridBitIdentical(t *testing.T) {
	x := tensor.RandN(xrand.New(21), 1, 4, 24, 32) // (B, L, M), N = 96
	dy := tensor.RandN(xrand.New(22), 1, 4, 24, 32)
	for _, gate := range []string{"gshard", "sigmoid", "xmoe", "ec"} {
		layer := worldLayer(t, gate, TutelOrder{}, false, false)
		want := runSequentialLayer(t, layer, x, dy)
		for _, grid := range []struct{ ranks, g int }{{4, 1}, {4, 2}, {4, 4}, {8, 2}, {8, 4}} {
			for _, r := range []int{1, 2, 4} {
				label := fmt.Sprintf("gate=%s R=%d g=%d r=%d", gate, grid.ranks, grid.g, r)
				got := runWorld(t, layer, WorldConfig{
					Ranks: grid.ranks, PipelineDegree: r, Strategy: StrategyHybrid, GroupSize: grid.g,
				}, x, dy, false)
				compareSnapshots(t, label, want, got)
			}
		}
	}
}

// TestWorldHybridBitIdenticalVariants covers the remaining hybrid axes:
// Mixtral experts (two-band backward exchange), split forward/backward
// degrees, the sequential executor, hierarchical AlltoAll lanes with a
// node shape that splits the groups, a larger world (R=8: one expert per
// rank, four groups), and experts seen through the Expert interface alone,
// at g = 2 and at g = 1.
func TestWorldHybridBitIdenticalVariants(t *testing.T) {
	x := tensor.RandN(xrand.New(31), 1, 96, 32)
	dy := tensor.RandN(xrand.New(32), 1, 96, 32)
	cases := []struct {
		name       string
		mixtral    bool
		stagedOnly bool
		cfg        WorldConfig
		seqExec    bool
	}{
		{"mixtral", true, false, WorldConfig{Ranks: 4, PipelineDegree: 2, GroupSize: 2}, false},
		{"split-degrees", false, false, WorldConfig{Ranks: 4, PipelineDegree: 4, PipelineDegreeBwd: 2, GroupSize: 2}, false},
		{"sequential-exec", false, false, WorldConfig{Ranks: 4, PipelineDegree: 3, GroupSize: 2}, true},
		{"1dh-lanes", false, false, WorldConfig{Ranks: 4, PipelineDegree: 2, GroupSize: 2, Algo: comm.A2A1DH, GPUsPerNode: 2}, false},
		{"nodes-split-groups", false, false, WorldConfig{Ranks: 4, PipelineDegree: 2, GroupSize: 4, GPUsPerNode: 2}, false},
		{"r8-g2", false, false, WorldConfig{Ranks: 8, PipelineDegree: 2, GroupSize: 2}, false},
		{"r8-g4", false, false, WorldConfig{Ranks: 8, PipelineDegree: 3, GroupSize: 4}, false},
		{"staged-only-g2", false, true, WorldConfig{Ranks: 4, PipelineDegree: 2, GroupSize: 2}, false},
		{"staged-only-g1", false, true, WorldConfig{Ranks: 4, PipelineDegree: 2, GroupSize: 1}, false},
	}
	for _, tc := range cases {
		tc.cfg.Strategy = StrategyHybrid
		layer := worldLayer(t, "gshard", TutelOrder{}, tc.mixtral, tc.stagedOnly)
		want := runSequentialLayer(t, layer, x, dy)
		got := runWorld(t, layer, tc.cfg, x, dy, tc.seqExec)
		compareSnapshots(t, tc.name, want, got)
	}
}

// TestWorldHybridValidation: hybrid misconfiguration fails at NewWorld
// with errors naming the strategy and the offending field. (GroupSize 0 is
// not among them: it asks the planner for a group size.)
func TestWorldHybridValidation(t *testing.T) {
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	for _, g := range []int{-1, 5} {
		_, err := NewWorld(layer, WorldConfig{Ranks: 4, Strategy: StrategyHybrid, GroupSize: g, PipelineDegree: 1})
		if err == nil || !strings.Contains(err.Error(), string(StrategyHybrid)) || !strings.Contains(err.Error(), "GroupSize") {
			t.Fatalf("GroupSize=%d: %v", g, err)
		}
	}
	_, err := NewWorld(layer, WorldConfig{Ranks: 4, Strategy: StrategyHybrid, GroupSize: 3, PipelineDegree: 1})
	if err == nil || !strings.Contains(err.Error(), string(StrategyHybrid)) ||
		!strings.Contains(err.Error(), "GroupSize") || !strings.Contains(err.Error(), "dividing") {
		t.Fatalf("GroupSize=3 over 4 ranks: %v", err)
	}

	// Dense plans are rejected at Forward, naming both strategies.
	dense := softmoeLayer(t, false, 2)
	w, err := NewWorld(dense, WorldConfig{Ranks: 2, Strategy: StrategyHybrid, GroupSize: 2, PipelineDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Forward(tensor.RandN(xrand.New(5), 1, 16, 32), false); err == nil ||
		!strings.Contains(err.Error(), string(StrategyHybrid)) || !strings.Contains(err.Error(), string(StrategyDenseSlots)) {
		t.Fatalf("hybrid on dense plan: %v", err)
	}
}

// TestWorldHybridTraceShape pins the two-stream schedule: dispatch and
// combine AlltoAll run on the shared inter stream while every AllGather
// and ReduceScatter runs on a per-group intra collective stream — both
// collective families live in one plan, which neither EP nor ESP ever has.
func TestWorldHybridTraceShape(t *testing.T) {
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy() != StrategyHybrid {
		t.Fatalf("Strategy() = %q", w.Strategy())
	}
	x := tensor.RandN(xrand.New(51), 1, 64, 32)
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	counts := func() map[string]int {
		onlyPlanStreams(t, w)
		kinds := map[string]int{}
		groupStreams := map[string]bool{}
		for _, iv := range w.LastTrace().Intervals {
			kinds[iv.Task.Kind]++
			switch iv.Task.Kind {
			case KindA2A:
				if iv.Task.Stream != "inter" {
					t.Fatalf("AlltoAll %q on stream %q, want inter", iv.Task.Label, iv.Task.Stream)
				}
			case KindAG, KindRS:
				if !strings.HasPrefix(iv.Task.Stream, "intra:g") {
					t.Fatalf("%s %q on stream %q, want a per-group intra:g<G> stream", iv.Task.Kind, iv.Task.Label, iv.Task.Stream)
				}
				groupStreams[iv.Task.Stream] = true
			}
		}
		if len(groupStreams) != 2 {
			t.Fatalf("group collective streams = %v, want both groups live", groupStreams)
		}
		return kinds
	}
	fwd := counts()
	// Per chunk: one dispatch + one combine AlltoAll step on inter; per
	// chunk and group: input AllGather, hidden AllGather, ReduceScatter.
	if fwd[KindA2A] != 4 || fwd[KindAG] != 8 || fwd[KindRS] != 4 {
		t.Fatalf("forward kinds = %v, want 4 AlltoAll + 8 AllGather + 4 ReduceScatter", fwd)
	}
	if _, err := w.Backward(cache, tensor.RandN(xrand.New(52), 1, 64, 32)); err != nil {
		t.Fatal(err)
	}
	bwd := counts()
	if bwd[KindA2A] != 4 || bwd[KindAG] != 8 || bwd[KindRS] != 4 {
		t.Fatalf("backward kinds = %v, want 4 AlltoAll + 8 AllGather + 4 ReduceScatter", bwd)
	}
	st := w.Stats()
	if st.IntraVolume+st.InterVolume <= 0 {
		t.Fatal("no collective traffic recorded")
	}
}

// TestWorldStepHybrid: a StepWorlds stack of hybrid layers — and a mixed
// EP/hybrid/ESP stack — steps to bit-identical parameters with the §5
// AllReduce slices genuinely embedded in the backward plans' inter stream
// (where under hybrid they contend with the dispatch-gradient lanes,
// exactly as the emit-point budget assumes).
func TestWorldStepHybrid(t *testing.T) {
	const layers, lr = 3, 0.05
	x := tensor.RandN(xrand.New(71), 1, 96, 32)
	dy := tensor.RandN(xrand.New(72), 1, 96, 32)

	refLayers := make([]*MOELayer, layers)
	for i := range refLayers {
		refLayers[i] = worldLayer(t, "gshard", TutelOrder{}, false, false)
	}
	want := refStep(t, refLayers, x, dy, lr)

	stacks := map[string][]WorldConfig{
		"hybrid": {
			{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2},
			{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2},
			{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2},
		},
		"mixed": {
			{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP},
			{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2},
			{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP},
		},
	}
	for name, cfgs := range stacks {
		ws := make([]*World, layers)
		for i := 0; i < layers; i++ {
			l := worldLayer(t, "gshard", TutelOrder{}, false, false)
			w, err := NewWorld(l, cfgs[i])
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
