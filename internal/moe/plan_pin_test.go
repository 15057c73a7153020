package moe

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// updatePlanPin rewrites testdata/plan_pin.txt from the plans this tree
// builds. The committed file was recorded at the parent of the PR that
// replaced the per-strategy builders (PR 16's tree, the last one with a
// hand-written EP builder), so the pin below compares the one builder's
// g = 1 plans against that builder's, not against itself. Its fallback=true
// sections were recorded again when plain Experts moved behind the staged
// contract's adapter: the one expert task is labelled E0 like any chunk's,
// and the uniform finish adds a W task per rank; nothing else moved.
var updatePlanPin = flag.Bool("update-plan-pin", false, "rewrite testdata/plan_pin.txt from this tree's plans")

const planPinFile = "testdata/plan_pin.txt"

// streamListing renders a plan as its per-stream task sequences — label,
// kind, estimate and the labels of the tasks it waits for — streams in name
// order. Task ids, and so the interleaving of different streams' Adds, are
// left out: they schedule nothing.
func streamListing(w *World) []string {
	tasks := w.LastPlan().Tasks()
	byStream := map[string][]string{}
	for _, ti := range tasks {
		deps := make([]string, len(ti.Deps))
		for i, d := range ti.Deps {
			deps[i] = tasks[d].Label
		}
		sort.Strings(deps)
		byStream[ti.Stream] = append(byStream[ti.Stream],
			fmt.Sprintf("%s %s %s %.6g %v", ti.Stream, ti.Label, ti.Kind, ti.Est, deps))
	}
	streams := make([]string, 0, len(byStream))
	for s := range byStream {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	var out []string
	for _, s := range streams {
		out = append(out, byStream[s]...)
	}
	return out
}

// passListing runs one forward and backward pass and returns both plans'
// stream listings and what the pass computed.
func passListing(t *testing.T, l *MOELayer, cfg WorldConfig, x, dy *tensor.Tensor) (fwd, bwd []string, snap worldSnapshot) {
	t.Helper()
	w, err := NewWorld(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	l.ZeroGrad()
	y, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	fwd = streamListing(w)
	dx, err := w.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	return fwd, streamListing(w), worldSnapshot{y: y, dx: dx, grads: snapGrads(l)}
}

func sameListing(t *testing.T, label string, want, got []string) {
	t.Helper()
	for i := 0; i < len(want) || i < len(got); i++ {
		var a, b string
		if i < len(want) {
			a = want[i]
		}
		if i < len(got) {
			b = got[i]
		}
		if a != b {
			t.Fatalf("%s: task %d differs (%d vs %d tasks):\nwant: %s\ngot:  %s", label, i, len(want), len(got), a, b)
		}
	}
}

// TestWorldPlanPin pins what g = 1 means. The EP and DenseSlots plans the
// one builder produces — staged experts and adapted plain ones,
// R=4, r=2 — are, stream by stream, the plans recorded from the last tree
// that built them with a dedicated EP builder. And the group width is data:
// Hybrid at GroupSize 1 is EP's plan and at GroupSize R ESP's, with identical
// results.
func TestWorldPlanPin(t *testing.T) {
	x := tensor.RandN(xrand.New(33), 1, 96, 32)
	dy := tensor.RandN(xrand.New(34), 1, 96, 32)
	var got []string
	for _, strat := range []Strategy{StrategyEP, StrategyDenseSlots} {
		for _, fallback := range []bool{false, true} {
			layer := strategyLayer(t, strat, false)
			if fallback {
				for i, ex := range layer.cfg.Experts {
					layer.cfg.Experts[i] = onlyExpert{ex}
				}
				reresolve(layer)
			}
			fwd, bwd, _ := passListing(t, layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: strat}, x, dy)
			got = append(got, fmt.Sprintf("# %s fallback=%v forward", strat, fallback))
			got = append(got, fwd...)
			got = append(got, fmt.Sprintf("# %s fallback=%v backward", strat, fallback))
			got = append(got, bwd...)
		}
	}
	if *updatePlanPin {
		if err := os.WriteFile(planPinFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(planPinFile)
	if err != nil {
		t.Fatal(err)
	}
	sameListing(t, "recorded plans", strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n"), got)

	for _, tc := range []struct {
		name string
		g    int
		pure Strategy
	}{
		{"hybrid g=1 vs ep", 1, StrategyEP},
		{"hybrid g=R vs esp", 4, StrategyESP},
	} {
		layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		pureFwd, pureBwd, pureSnap := passListing(t, layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: tc.pure}, x, dy)
		hybFwd, hybBwd, hybSnap := passListing(t, layer,
			WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: tc.g}, x, dy)
		sameListing(t, tc.name+" forward", pureFwd, hybFwd)
		sameListing(t, tc.name+" backward", pureBwd, hybBwd)
		compareSnapshots(t, tc.name, pureSnap, hybSnap)
	}
}
