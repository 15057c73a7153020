package moe

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gradsync"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// residentPlans returns the forward and backward plans of w's idle
// workspace (nil while no workspace is idle).
func residentPlans(w *World) (fwd, bwd *layerPlan) {
	if w.ws == nil || w.ws.fwd == nil || w.ws.bwd == nil {
		return nil, nil
	}
	return w.ws.fwd.plan, w.ws.bwd.plan
}

// TestStepReplaysPlans: a stack stepped five times on one batch builds each
// world's forward and backward plan once and replays them, and every step
// equals the Sequential + SyncNoOverlap twin bit for bit — the replays
// included, whose backward plans run the §5 slices the stack's schedule
// hides in them, for the step Begin started. StepResult.Plans holds the
// resident backward plans. A new token
// count (another capacity) and a new pipeline degree each force a rebuild,
// whose steps, and their replays, still match the twin.
func TestStepReplaysPlans(t *testing.T) {
	const layers, ranks = 2, 4
	x := tensor.RandN(xrand.New(361), 1, 96, 32)
	dy := tensor.RandN(xrand.New(362), 1e-3, 96, 32)
	xs := tensor.RandN(xrand.New(363), 1, 64, 32)
	dys := tensor.RandN(xrand.New(364), 1e-3, 64, 32)
	ws, twin := stepStack(t, layers, ranks, 2, false), stepStack(t, layers, ranks, 2, false)
	cfg := StepConfig{LR: 0.05, Slices: 3}
	twinCfg := StepConfig{LR: 0.05, Sequential: true, Strategy: gradsync.StrategyNoOverlap}

	held := make([][2]*layerPlan, layers)
	step := func(what string, x, dy *tensor.Tensor, rebuilt bool) {
		t.Helper()
		got, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, err := StepWorlds(twin, x, dy, twinCfg)
		if err != nil {
			t.Fatalf("%s twin: %v", what, err)
		}
		sameAsTwin(t, what, got, want)
		if got.Report.Slices == 0 {
			t.Fatalf("%s: no §5 slice ran inside a plan; the replayed emission is untested", what)
		}
		for i, w := range ws {
			fwd, bwd := residentPlans(w)
			if fwd == nil || bwd == nil {
				t.Fatalf("%s: world %d holds no resident plans", what, i)
			}
			if got.Plans[layers-1-i] != bwd.Plan {
				t.Fatalf("%s: StepResult.Plans[%d] is not world %d's resident backward plan", what, layers-1-i, i)
			}
			for d, p := range [2]*layerPlan{fwd, bwd} {
				if (p != held[i][d]) != rebuilt {
					t.Fatalf("%s: world %d's %s plan rebuilt = %v, want %v", what, i, [2]string{"forward", "backward"}[d], p != held[i][d], rebuilt)
				}
			}
			held[i] = [2]*layerPlan{fwd, bwd}
		}
	}
	step("first step", x, dy, true)
	for s := 1; s < 5; s++ {
		step(fmt.Sprintf("replayed step %d", s), x, dy, false)
	}
	step("new token count", xs, dys, true)
	step("new token count replayed", xs, dys, false)
	for _, w := range ws {
		w.cfg.PipelineDegree, w.cfg.PipelineDegreeBwd = 1, 1
	}
	step("new degree", xs, dys, true)
	step("new degree replayed", xs, dys, false)
}

// TestWorldForwardForwardBackwardReplays: two forward passes before either
// backward check out two workspaces, and each cache's backward runs its own
// workspace's plans. Driven twice, the second round's first forward replays
// the plan the first round's first forward built (its workspace came back
// idle), and its backward replays that workspace's backward plan. Every
// pass equals the sequential layer on its input.
func TestWorldForwardForwardBackwardReplays(t *testing.T) {
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	x1 := tensor.RandN(xrand.New(365), 1, 96, 32)
	x2 := tensor.RandN(xrand.New(366), 1, 96, 32)
	dy := tensor.RandN(xrand.New(367), 1, 96, 32)
	want1, want2 := runSequentialLayer(t, layer, x1, dy), runSequentialLayer(t, layer, x2, dy)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	same := func(label string, want worldSnapshot, y, dx *tensor.Tensor) {
		t.Helper()
		if !y.SameBits(want.y) || !dx.SameBits(want.dx) {
			t.Fatalf("%s: output or input gradient differs from the sequential layer", label)
		}
	}
	var first [2]*layerPlan // the first workspace's plans, as the first round built them
	for round := 0; round < 2; round++ {
		y1, c1, err := w.Forward(x1, false)
		if err != nil {
			t.Fatal(err)
		}
		f1 := c1.ws.fwd.plan
		y2, c2, err := w.Forward(x2, false)
		if err != nil {
			t.Fatal(err)
		}
		if c1.ws == c2.ws || c2.ws.fwd.plan == f1 {
			t.Fatalf("round %d: two outstanding caches share a workspace or a plan", round)
		}
		dx2, err := w.Backward(c2, dy)
		if err != nil {
			t.Fatal(err)
		}
		if w.LastPlan() == nil || w.LastPlan() != w.ws.bwd.plan.Plan {
			t.Fatalf("round %d: the second cache's backward did not run its own workspace's plan", round)
		}
		ws1 := c1.ws
		dx1, err := w.Backward(c1, dy)
		if err != nil {
			t.Fatal(err)
		}
		if w.ws != ws1 || w.LastPlan() != ws1.bwd.plan.Plan {
			t.Fatalf("round %d: the first cache's backward did not run its own workspace's plan", round)
		}
		same(fmt.Sprintf("round %d first input", round), want1, y1, dx1)
		same(fmt.Sprintf("round %d second input", round), want2, y2, dx2)
		if round == 0 {
			first = [2]*layerPlan{f1, ws1.bwd.plan}
		} else if f1 != first[0] || ws1.bwd.plan != first[1] {
			t.Fatalf("the first workspace's plans were rebuilt in round 1; they must replay")
		}
	}
}

// faultStack is the stack TestStepFaultsFollowTaskAndAttempt steps: a
// hybrid (g = 2) world, whose plans run AlltoAll, AllGather and
// ReduceScatter tasks, over an EP world, both under one seeded, capped
// collective-fault plan. The stack's sink appends each step's fault and
// retry counts, forward plans included, to counts.
func faultStack(t *testing.T, counts *[]string) []*World {
	sink := sinkFunc(func(m *telemetry.StepMetrics) {
		*counts = append(*counts, fmt.Sprintf("%d faults %d retries", m.Faults, m.Retries))
	})
	var ws []*World
	for _, wc := range []WorldConfig{
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2, Sink: sink},
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP, Sink: sink},
	} {
		w, err := NewWorld(worldLayer(t, "gshard", TutelOrder{}, false, false), wc)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaultPlan(fault.New(fault.Spec{
			Seed:                 17,
			KindProb:             map[string]float64{KindA2A: 0.3, KindAG: 0.3, KindRS: 0.3},
			MaxTransientsPerTask: 2,
		}))
		ws = append(ws, w)
	}
	return ws
}

// stepFaults lists a step's injected faults: per backward plan, in stack
// order, its faulted (task label, attempt) pairs sorted, since streams
// interleave.
func stepFaults(res *StepResult) string {
	var out []string
	for _, tr := range res.Traces {
		var evs []string
		for _, ev := range tr.Events {
			if ev.Type == sim.EventFault {
				evs = append(evs, fmt.Sprintf("%s@%d", ev.Label, ev.Attempt))
			}
		}
		slices.Sort(evs)
		out = append(out, strings.Join(evs, " "))
	}
	return strings.Join(out, " | ")
}

// TestStepFaultsFollowTaskAndAttempt: a fault decision is a pure function of
// (seed, task, attempt), so a resident plan replayed under one seeded spec
// fails the same task attempts every step: over three steps each step's
// backward plans record step 0's (label, attempt) fault events and the
// stack's sinks step 0's fault and retry counts, forward plans included;
// so does a freshly built twin stack stepped once, and every step equals
// its fault-free twin. The plans are replayed, never rebuilt. Then each
// fault setting takes effect on the next replay, with no rebuild:
// SetFaultPlan(nil) records no incident; an uncapped transient on every
// AlltoAll attempt fails a step, and capped at one per task the budget
// absorbs it; a deadline shorter than an injected straggler fails a step
// with context.DeadlineExceeded, and removing it lets the next step through.
func TestStepFaultsFollowTaskAndAttempt(t *testing.T) {
	x := tensor.RandN(xrand.New(371), 1, 96, 32)
	dy := tensor.RandN(xrand.New(372), 1e-3, 96, 32)
	var counts, scratch []string
	ws := faultStack(t, &counts)
	twin := faultStack(t, &scratch)
	for _, w := range twin {
		w.SetFaultPlan(nil)
	}
	cfg := StepConfig{LR: 0.05, Slices: 3}
	plans := func() []*layerPlan {
		var out []*layerPlan
		for _, w := range ws {
			fwd, bwd := residentPlans(w)
			out = append(out, fwd, bwd)
		}
		return out
	}
	var built []*layerPlan
	replayed := func(what string) {
		t.Helper()
		for i, p := range plans() {
			if p != built[i] {
				t.Fatalf("%s: plan %d was rebuilt; the setting must take effect on a replay", what, i)
			}
		}
	}
	var first string
	for s := 0; s < 3; s++ {
		got, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		ref, err := StepWorlds(twin, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameAsTwin(t, fmt.Sprintf("step %d", s), got, ref)
		faults := stepFaults(got)
		if s == 0 {
			first, built = faults, plans()
			continue
		}
		replayed(fmt.Sprintf("step %d", s))
		if faults != first {
			t.Fatalf("step %d faults:\n got %s\nwant %s", s, faults, first)
		}
		if counts[s] != counts[0] {
			t.Fatalf("step %d: %s, step 0 %s", s, counts[s], counts[0])
		}
	}
	if !strings.Contains(first, "@") || counts[0] == "0 faults 0 retries" {
		t.Fatalf("the seeded plan injected no fault (%s; %s): the test would not see a moved decision", first, counts[0])
	}
	var freshCounts []string
	res, err := StepWorlds(faultStack(t, &freshCounts), x, dy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := stepFaults(res); got != first || freshCounts[0] != counts[0] {
		t.Fatalf("a fresh stack's step: %s (%s), want %s (%s)", got, freshCounts[0], first, counts[0])
	}

	// No injector: no incident.
	for _, w := range ws {
		w.SetFaultPlan(nil)
	}
	res, err = StepWorlds(ws, x, dy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed("SetFaultPlan(nil)")
	for _, tr := range res.Traces {
		if len(tr.Events) != 0 {
			t.Fatalf("incidents %v with no injector", tr.Events)
		}
	}
	if c := counts[len(counts)-1]; c != "0 faults 0 retries" {
		t.Fatalf("%s with no injector", c)
	}

	// Uncapped, an injected transient on every AlltoAll attempt exhausts
	// the retry budget and fails the step; capped at one per task, the
	// budget absorbs it.
	always := fault.Spec{Seed: 3, KindProb: map[string]float64{KindA2A: 1}}
	for _, w := range ws {
		w.SetFaultPlan(fault.New(always))
	}
	if _, err := StepWorlds(ws, x, dy, cfg); err == nil || !fault.IsTransient(err) {
		t.Fatalf("uncapped transients: err %v, want a transient failure", err)
	}
	replayed("uncapped transients")
	always.MaxTransientsPerTask = 1
	for _, w := range ws {
		w.SetFaultPlan(fault.New(always))
	}
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatalf("the retry budget must absorb one transient per task: %v", err)
	}
	replayed("one transient per task")

	// A deadline shorter than an injected straggler.
	slow := fault.New(fault.Spec{Seed: 5, StragglerProb: 1, StragglerDelay: 20 * time.Millisecond})
	for _, w := range ws {
		w.SetFaultPlan(slow)
		w.SetDeadline(2 * time.Millisecond)
	}
	if _, err := StepWorlds(ws, x, dy, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline under a straggler: err %v, want context.DeadlineExceeded", err)
	}
	replayed("SetDeadline")
	for _, w := range ws {
		w.SetFaultPlan(nil)
		w.SetDeadline(0)
	}
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatalf("no deadline: %v", err)
	}
	replayed("SetDeadline(0)")
}

// countingGate counts its Backward calls.
type countingGate struct {
	Gate
	backwards int
}

func (g *countingGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	g.backwards++
	g.Gate.Backward(dx, rc, grad)
}

// TestWorldGateBackwardOnce: the gate's backward runs inside the backward
// plan exactly once per pass — on a replayed plan too, pipelined and
// sequential — and its gradients and the input gradient equal the
// sequential layer's.
func TestWorldGateBackwardOnce(t *testing.T) {
	x := tensor.RandN(xrand.New(368), 1, 96, 32)
	dy := tensor.RandN(xrand.New(369), 1, 96, 32)
	for _, strat := range []Strategy{StrategyEP, StrategyDenseSlots} {
		layer := strategyLayer(t, strat, false)
		want := runSequentialLayer(t, layer, x, dy)
		gate := &countingGate{Gate: layer.cfg.Gate}
		layer.cfg.Gate = gate
		w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 3; pass++ {
			w.SetSequential(pass == 2)
			layer.ZeroGrad()
			y, cache, err := w.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			dx, err := w.Backward(cache, dy)
			if err != nil {
				t.Fatal(err)
			}
			if gate.backwards != pass {
				t.Fatalf("%s pass %d: the gate's backward ran %d times in all, want %d", strat, pass, gate.backwards, pass)
			}
			compareSnapshots(t, fmt.Sprintf("%s pass %d", strat, pass), want, worldSnapshot{y: y, dx: dx, grads: snapGrads(layer)})
		}
		w.Close()
	}
}

// TestStepAfterFailedStepReplays: a step that fails hands back every
// forward cache it still holds. A 3-layer EP stack steps warm, then one step
// fails — in layer 2's forward (a deadline no plan meets), or in layer 1's
// backward (every AllReduce slice faults, retries exhausted), with layer
// 0's cache still outstanding — and the next clean step replays each
// world's resident forward and backward plans on the workspace it had
// (pointer-equal plans, LastPlan included) and allocates within
// TestStepAllocationBound's per-layer allowance.
func TestStepAfterFailedStepReplays(t *testing.T) {
	const layers, ranks = 3, 4
	x := tensor.RandN(xrand.New(451), 1, 128, 64)
	dy := tensor.RandN(xrand.New(452), 1, 128, 64)
	for _, tc := range []struct {
		name        string
		fail, clear func(ws []*World)
	}{
		{"forward", func(ws []*World) { ws[2].SetDeadline(time.Nanosecond) }, func(ws []*World) { ws[2].SetDeadline(0) }},
		{"backward", func(ws []*World) {
			ws[1].SetFaultPlan(fault.New(fault.Spec{KindProb: map[string]float64{gradsync.KindAllReduce: 1}}))
		}, func(ws []*World) { ws[1].SetFaultPlan(nil) }},
	} {
		ws := make([]*World, layers)
		for i := range ws {
			w, err := NewWorld(benchWorldLayer(t, 64, 32, 8), WorldConfig{Ranks: ranks, PipelineDegree: 2, Strategy: StrategyEP})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			ws[i] = w
		}
		cfg := StepConfig{LR: 0.01}
		// The collector is off from the warm-up on, as in
		// TestStepAllocationBound.
		goruntime.GC()
		prev := debug.SetGCPercent(-1)
		for s := 0; s < 3; s++ {
			if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
				t.Fatal(err)
			}
		}
		type held struct {
			ws       *workspace
			fwd, bwd *layerPlan
			last     *runtime.Plan
		}
		before := make([]held, layers)
		for i, w := range ws {
			fwd, bwd := residentPlans(w)
			before[i] = held{w.ws, fwd, bwd, w.LastPlan()}
		}

		tc.fail(ws)
		if res, err := StepWorlds(ws, x, dy, cfg); err == nil {
			t.Fatalf("%s: the step did not fail (%d degraded passes)", tc.name, len(res.Degraded))
		}
		tc.clear(ws)

		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		_, err := StepWorlds(ws, x, dy, cfg)
		goruntime.ReadMemStats(&m1)
		debug.SetGCPercent(prev)
		if err != nil {
			t.Fatalf("%s: the step after the failed one: %v", tc.name, err)
		}
		for i, w := range ws {
			fwd, bwd := residentPlans(w)
			if now := (held{w.ws, fwd, bwd, w.LastPlan()}); now != before[i] {
				t.Fatalf("%s: world %d cut a new workspace or rebuilt a plan after the failed step", tc.name, i)
			}
		}
		got := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("%s: the step after the failed one allocated %d bytes", tc.name, got)
		if got >= layers*stepLayerSlack {
			t.Fatalf("%s: the step after the failed one allocated %d bytes, want under %d", tc.name, got, layers*stepLayerSlack)
		}
	}
}
