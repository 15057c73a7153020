package moe

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// updatePlanPin rewrites testdata/plan_pin.txt from the plans this tree
// builds. The committed file was recorded at the parent of the PR that
// replaced the per-strategy builders (PR 16's tree, the last one with a
// hand-written EP builder), so the pin below compares the one builder's
// g = 1 plans against that builder's, not against itself.
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
		byStream[ti.Stream] = append(byStream[ti.Stream],
			fmt.Sprintf("%s %s %s %.6g %v", ti.Stream, ti.Label, ti.Kind, ti.Est, depLabels(tasks, ti)))
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

// depLabels is the sorted labels of the tasks ti waits for.
func depLabels(tasks []runtime.TaskInfo, ti runtime.TaskInfo) []string {
	deps := make([]string, len(ti.Deps))
	for i, d := range ti.Deps {
		deps[i] = tasks[d].Label
	}
	sort.Strings(deps)
	return deps
}

// splitRoute separates a listing's route-stream lines from the rest.
func splitRoute(listing []string) (route, rest []string) {
	for _, l := range listing {
		if strings.HasPrefix(l, routeStream+" ") {
			route = append(route, l)
		} else {
			rest = append(rest, l)
		}
	}
	return route, rest
}

// routePin is the route stream's tasks of the R=4, r=2 backward plans —
// label, kind and the labels of the tasks each waits for — in stream order.
// The inter, intra and compute streams are testdata/plan_pin.txt's, which
// the route tasks leave as they were: on a hard plan the gate backward G
// waits for nothing and the Order adjoint S for the last dispatch adjoint
// and G; on a dense plan (one backward chunk: its capacity splits no
// further) G waits for S, whose dispatch-weight gradient it reads.
var routePin = map[Strategy][]string{
	StrategyEP:         {"G Others []", "S Others [D[1] G]"},
	StrategyDenseSlots: {"S Others [D[0]]", "G Others [S]"},
}

// routeListing renders the last plan's route-stream tasks as routePin does.
func routeListing(w *World) []string {
	tasks := w.LastPlan().Tasks()
	var out []string
	for _, ti := range tasks {
		if ti.Stream == routeStream {
			out = append(out, fmt.Sprintf("%s %s %v", ti.Label, ti.Kind, depLabels(tasks, ti)))
		}
	}
	return out
}

// passListing runs one forward and backward pass and returns both plans'
// stream listings, the backward's route stream as routePin lists it, and
// what the pass computed.
func passListing(t *testing.T, l *MOELayer, cfg WorldConfig, x, dy *tensor.Tensor) (fwd, bwd, route []string, snap worldSnapshot) {
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
	return fwd, streamListing(w), routeListing(w), worldSnapshot{y: y, dx: dx, grads: snapGrads(l)}
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
// one builder produces at R=4, r=2 are, on the inter, intra and compute
// streams, the plans recorded from the last tree that built them with a
// dedicated EP builder, and their route streams are routePin's. And the
// group width is data: Hybrid at GroupSize 1 is EP's plan and at GroupSize R
// ESP's, EP over a dense gate is DenseSlots' plan and DenseSlots over a hard
// gate EP's, with identical results.
func TestWorldPlanPin(t *testing.T) {
	x := tensor.RandN(xrand.New(33), 1, 96, 32)
	dy := tensor.RandN(xrand.New(34), 1, 96, 32)
	var got []string
	for _, strat := range []Strategy{StrategyEP, StrategyDenseSlots} {
		fwd, bwd, route, _ := passListing(t, strategyLayer(t, strat, false), WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: strat}, x, dy)
		if fwdRoute, _ := splitRoute(fwd); len(fwdRoute) > 0 {
			t.Fatalf("%s forward plan has route tasks %v", strat, fwdRoute)
		}
		sameListing(t, string(strat)+" route stream", routePin[strat], route)
		_, bwd = splitRoute(bwd)
		got = append(got, fmt.Sprintf("# %s forward", strat))
		got = append(got, fwd...)
		got = append(got, fmt.Sprintf("# %s backward", strat))
		got = append(got, bwd...)
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
		name  string
		dense bool
		cfg   WorldConfig
		pure  Strategy
	}{
		{"hybrid g=1 vs ep", false, WorldConfig{Strategy: StrategyHybrid, GroupSize: 1}, StrategyEP},
		{"hybrid g=R vs esp", false, WorldConfig{Strategy: StrategyHybrid, GroupSize: 4}, StrategyESP},
		{"ep vs dense-slots over a dense gate", true, WorldConfig{Strategy: StrategyEP}, StrategyDenseSlots},
		{"dense-slots vs ep over a hard gate", false, WorldConfig{Strategy: StrategyDenseSlots}, StrategyEP},
	} {
		layer := routingLayer(t, tc.dense, false)
		pureFwd, pureBwd, pureRoute, pureSnap := passListing(t, layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: tc.pure}, x, dy)
		tc.cfg.Ranks, tc.cfg.PipelineDegree = 4, 2
		fwd, bwd, route, snap := passListing(t, layer, tc.cfg, x, dy)
		sameListing(t, tc.name+" forward", pureFwd, fwd)
		sameListing(t, tc.name+" backward", pureBwd, bwd)
		sameListing(t, tc.name+" route stream", pureRoute, route)
		compareSnapshots(t, tc.name, pureSnap, snap)
	}
}
