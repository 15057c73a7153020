package moe

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gradsync"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// runFaultWorld runs one forward/backward pass under an injector and
// returns the snapshot plus the fault/retry/straggler event counts
// accumulated over both plans.
func runFaultWorld(t *testing.T, l *MOELayer, cfg WorldConfig, fp *fault.Plan, x, dy *tensor.Tensor) (worldSnapshot, map[string]int) {
	t.Helper()
	w, err := NewWorld(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaultPlan(fp)
	events := map[string]int{}
	count := func() {
		if tr := w.LastTrace(); tr != nil {
			for _, typ := range []string{sim.EventFault, sim.EventRetry, sim.EventStraggler} {
				events[typ] += tr.EventCount(typ)
			}
		}
	}
	l.ZeroGrad()
	y, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	count()
	dx, err := w.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	count()
	return worldSnapshot{y: y, dx: dx, grads: snapGrads(l)}, events
}

// TestWorldZeroSpecInjector: an installed injector with the zero Spec is
// inert — results stay bit-identical to the sequential reference and no
// fault events reach the trace.
func TestWorldZeroSpecInjector(t *testing.T) {
	x := tensor.RandN(xrand.New(71), 1, 96, 32)
	dy := tensor.RandN(xrand.New(72), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)
	got, ev := runFaultWorld(t, layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP}, fault.New(fault.Spec{Seed: 1}), x, dy)
	compareSnapshots(t, "zero-spec", want, got)
	for typ, n := range ev {
		if n != 0 {
			t.Fatalf("zero-spec injector produced %d %s events", n, typ)
		}
	}
}

// TestWorldTransientBitIdentical is the chaos acceptance matrix:
// transient faults injected into every collective kind (KindProb) are
// retried until the pass completes bit-identically to the sequential
// reference, across strategy × R × r. The transient cap
// (2) stays below the retry budget (4 attempts) so recovery is
// guaranteed; the fault events must still be visible on the traces.
func TestWorldTransientBitIdentical(t *testing.T) {
	x := tensor.RandN(xrand.New(73), 1, 96, 32)
	dy := tensor.RandN(xrand.New(74), 1, 96, 32)
	spec := fault.Spec{
		Seed: 99,
		KindProb: map[string]float64{
			KindA2A: 0.4, KindAG: 0.4, KindRS: 0.4,
		},
		MaxTransientsPerTask: 2,
	}
	totalFaults, totalRetries := 0, 0
	for _, strat := range []Strategy{StrategyEP, StrategyESP} {
		layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		want := runSequentialLayer(t, layer, x, dy)
		for _, ranks := range []int{1, 4} {
			for _, r := range []int{1, 2} {
				label := fmt.Sprintf("strategy=%s R=%d r=%d", strat, ranks, r)
				cfg := WorldConfig{Ranks: ranks, PipelineDegree: r, Strategy: strat}
				got, ev := runFaultWorld(t, layer, cfg, fault.New(spec), x, dy)
				compareSnapshots(t, label, want, got)
				totalFaults += ev[sim.EventFault]
				totalRetries += ev[sim.EventRetry]
			}
		}
	}
	if totalFaults == 0 || totalRetries == 0 {
		t.Fatalf("chaos sweep observed %d faults / %d retries; injection never fired", totalFaults, totalRetries)
	}
}

// TestWorldStragglerBitIdentical: straggler delays stretch the schedule
// but never change bytes.
func TestWorldStragglerBitIdentical(t *testing.T) {
	x := tensor.RandN(xrand.New(75), 1, 96, 32)
	dy := tensor.RandN(xrand.New(76), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)
	fp := fault.New(fault.Spec{Seed: 5, StragglerProb: 0.3, StragglerDelay: 20 * time.Microsecond})
	got, ev := runFaultWorld(t, layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP}, fp, x, dy)
	compareSnapshots(t, "stragglers", want, got)
	if ev[sim.EventStraggler] == 0 {
		t.Fatal("straggler injection never fired")
	}
}

// TestWorldTransientBitIdenticalHybrid extends the chaos matrix to the
// hybrid EP×ESP strategy: transient faults on the group-scoped
// collectives are retried until the pass completes bit-identically, across
// group widths g ∈ {2, 4}.
func TestWorldTransientBitIdenticalHybrid(t *testing.T) {
	x := tensor.RandN(xrand.New(95), 1, 96, 32)
	dy := tensor.RandN(xrand.New(96), 1, 96, 32)
	spec := fault.Spec{
		Seed: 99,
		KindProb: map[string]float64{
			KindA2A: 0.4, KindAG: 0.4, KindRS: 0.4,
		},
		MaxTransientsPerTask: 2,
	}
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)
	totalFaults, totalRetries := 0, 0
	for _, g := range []int{2, 4} {
		for _, r := range []int{1, 2} {
			label := fmt.Sprintf("strategy=hybrid g=%d r=%d", g, r)
			cfg := WorldConfig{Ranks: 4, PipelineDegree: r, Strategy: StrategyHybrid, GroupSize: g}
			got, ev := runFaultWorld(t, layer, cfg, fault.New(spec), x, dy)
			compareSnapshots(t, label, want, got)
			totalFaults += ev[sim.EventFault]
			totalRetries += ev[sim.EventRetry]
		}
	}
	if totalFaults == 0 || totalRetries == 0 {
		t.Fatalf("hybrid chaos sweep observed %d faults / %d retries; injection never fired", totalFaults, totalRetries)
	}
}

// TestWorldStragglerBitIdenticalHybrid: straggler delays inside the
// hybrid group-scoped schedule stretch the makespan but never the bytes.
func TestWorldStragglerBitIdenticalHybrid(t *testing.T) {
	x := tensor.RandN(xrand.New(97), 1, 96, 32)
	dy := tensor.RandN(xrand.New(98), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)
	fp := fault.New(fault.Spec{Seed: 5, StragglerProb: 0.3, StragglerDelay: 20 * time.Microsecond})
	cfg := WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2}
	got, ev := runFaultWorld(t, layer, cfg, fp, x, dy)
	compareSnapshots(t, "hybrid stragglers", want, got)
	if ev[sim.EventStraggler] == 0 {
		t.Fatal("hybrid straggler injection never fired")
	}
}

// TestWorldDegradedHybrid: a permanent rank loss inside the hybrid
// strategy's group-scoped schedule completes on the degraded path
// deterministically, with the dead group members' experts frozen.
func TestWorldDegradedHybrid(t *testing.T) {
	x := tensor.RandN(xrand.New(99), 1, 96, 32)
	dy := tensor.RandN(xrand.New(100), 1, 96, 32)
	run := func() (worldSnapshot, *DegradedResult) {
		layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaultPlan(fault.New(fault.Spec{Seed: 9, Down: &fault.Down{Rank: 2, Kind: KindExpert}}))
		layer.ZeroGrad()
		_, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatalf("hybrid degraded forward must complete, got %v", err)
		}
		if _, err := w.Backward(cache, dy); err != nil {
			t.Fatalf("hybrid degraded backward must complete, got %v", err)
		}
		deg := w.LastDegraded()
		if deg == nil {
			t.Fatal("no DegradedResult after hybrid rank loss")
		}
		expectZeroGrads(t, layer, deg.LostExperts, "hybrid-degraded")
		expectZeroGateGrads(t, layer, "hybrid-degraded")
		return worldSnapshot{dx: x, y: x, grads: snapGrads(layer)}, deg
	}
	snap, deg := run()
	if deg.Rank != 2 {
		t.Fatalf("degraded rank = %d, want 2", deg.Rank)
	}
	if len(deg.LostExperts) == 0 {
		t.Fatal("no experts reported lost")
	}
	snap2, deg2 := run()
	compareSnapshots(t, "hybrid degraded determinism", snap, snap2)
	if deg2.ReroutedTokens != deg.ReroutedTokens || deg2.DroppedTokens != deg.DroppedTokens {
		t.Fatalf("hybrid degraded rerouting not deterministic: %d/%d vs %d/%d",
			deg.ReroutedTokens, deg.DroppedTokens, deg2.ReroutedTokens, deg2.DroppedTokens)
	}
}

// expectZeroGrads asserts every parameter gradient of the given experts
// is exactly zero (dead experts are frozen in degraded mode).
func expectZeroGrads(t *testing.T, l *MOELayer, experts []int, label string) {
	t.Helper()
	for _, e := range experts {
		for pi, p := range l.cfg.Experts[e].Params() {
			for _, v := range p.G.Data() {
				if v != 0 {
					t.Fatalf("%s: dead expert %d param %d has non-zero gradient", label, e, pi)
				}
			}
		}
	}
}

func expectZeroGateGrads(t *testing.T, l *MOELayer, label string) {
	t.Helper()
	for pi, p := range l.cfg.Gate.Params() {
		for _, v := range p.G.Data() {
			if v != 0 {
				t.Fatalf("%s: frozen router gate param %d has non-zero gradient", label, pi)
			}
		}
	}
}

// TestWorldDegradedForward: a permanent rank failure during the forward
// plan completes the step degraded instead of aborting — the dead rank's
// tokens are re-routed into surviving experts' capacity, the backward
// pairs with the degraded routing, dead experts and the router accumulate
// no gradient, and the whole degraded pass is deterministic.
func TestWorldDegradedForward(t *testing.T) {
	x := tensor.RandN(xrand.New(81), 1, 96, 32)
	dy := tensor.RandN(xrand.New(82), 1, 96, 32)
	const ranks = 4
	run := func() (worldSnapshot, *DegradedResult, []bool) {
		layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		w, err := NewWorld(layer, WorldConfig{Ranks: ranks, PipelineDegree: 2, Strategy: StrategyEP})
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaultPlan(fault.New(fault.Spec{Seed: 3, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
		layer.ZeroGrad()
		y, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatalf("degraded forward must complete, got %v", err)
		}
		deg := w.LastDegraded()
		if deg == nil {
			t.Fatal("no DegradedResult after permanent rank failure")
		}
		dx, err := w.Backward(cache, dy)
		if err != nil {
			t.Fatalf("degraded backward must complete, got %v", err)
		}
		return worldSnapshot{y: y, dx: dx, grads: snapGrads(layer)}, w.LastDegraded(), w.Health()
	}

	snap, deg, health := run()
	if deg.Rank != 1 || deg.Phase != "forward" {
		t.Fatalf("DegradedResult rank/phase = %d/%q, want 1/forward", deg.Rank, deg.Phase)
	}
	egrp := 8 / ranks
	wantLost := lostList(1*egrp, 2*egrp)
	if fmt.Sprint(deg.LostExperts) != fmt.Sprint(wantLost) {
		t.Fatalf("LostExperts = %v, want %v", deg.LostExperts, wantLost)
	}
	if deg.ReroutedTokens+deg.DroppedTokens == 0 {
		t.Fatal("dead rank held no tokens; rerouting never exercised")
	}
	if deg.RecoveryMS <= 0 {
		t.Fatal("RecoveryMS not measured")
	}
	if !strings.Contains(deg.Cause, "permanent") && deg.Cause == "" {
		t.Fatalf("Cause not recorded: %q", deg.Cause)
	}
	for r, ok := range health {
		if want := r != 1; ok != want {
			t.Fatalf("Health()[%d] = %v, want %v", r, ok, want)
		}
	}

	// Determinism: a fresh identically-seeded run reproduces the degraded
	// pass bit-for-bit.
	snap2, deg2, _ := run()
	compareSnapshots(t, "degraded determinism", snap, snap2)
	if deg2.ReroutedTokens != deg.ReroutedTokens || deg2.DroppedTokens != deg.DroppedTokens {
		t.Fatalf("degraded rerouting not deterministic: %d/%d vs %d/%d",
			deg.ReroutedTokens, deg.DroppedTokens, deg2.ReroutedTokens, deg2.DroppedTokens)
	}
}

// TestWorldDegradedForwardFreezes runs the degraded pass on one layer
// instance and asserts the freeze contract: dead experts and the router
// accumulate exactly zero gradient, surviving experts accumulate some.
func TestWorldDegradedForwardFreezes(t *testing.T) {
	x := tensor.RandN(xrand.New(83), 1, 96, 32)
	dy := tensor.RandN(xrand.New(84), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP})
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaultPlan(fault.New(fault.Spec{Seed: 3, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	layer.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Backward(cache, dy); err != nil {
		t.Fatal(err)
	}
	deg := w.LastDegraded()
	expectZeroGrads(t, layer, deg.LostExperts, "degraded-forward")
	expectZeroGateGrads(t, layer, "degraded-forward")
	nonzero := false
	for e := 0; e < len(layer.cfg.Experts) && !nonzero; e++ {
		if e >= deg.LostExperts[0] && e <= deg.LostExperts[len(deg.LostExperts)-1] {
			continue
		}
		for _, p := range layer.cfg.Experts[e].Params() {
			for _, v := range p.G.Data() {
				if v != 0 {
					nonzero = true
					break
				}
			}
		}
	}
	if !nonzero {
		t.Fatal("surviving experts accumulated no gradient at all")
	}

	// The rank stays down: the next forward goes straight to the degraded
	// path without building a plan.
	_, cache2, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	deg2 := w.LastDegraded()
	if deg2 == nil || !strings.Contains(deg2.Cause, "still down") {
		t.Fatalf("second forward did not report the standing failure: %+v", deg2)
	}
	if _, err := w.Backward(cache2, dy); err != nil {
		t.Fatal(err)
	}
}

// TestWorldDegradedBackward: a permanent failure during the backward plan
// keeps the full-strength routing, clears the dead experts' gradient
// slots, and completes; ResetHealth then restores bit-identical
// full-strength stepping.
func TestWorldDegradedBackward(t *testing.T) {
	x := tensor.RandN(xrand.New(85), 1, 96, 32)
	dy := tensor.RandN(xrand.New(86), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)

	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP})
	if err != nil {
		t.Fatal(err)
	}
	layer.ZeroGrad()
	_, cache, err := w.Forward(x, false) // clean forward at full strength
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaultPlan(fault.New(fault.Spec{Seed: 4, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	dx, err := w.Backward(cache, dy)
	if err != nil {
		t.Fatalf("degraded backward recovery must complete, got %v", err)
	}
	if dx == nil {
		t.Fatal("nil input gradient from degraded backward")
	}
	deg := w.LastDegraded()
	if deg == nil || deg.Phase != "backward" || deg.Rank != 1 {
		t.Fatalf("DegradedResult = %+v, want backward-phase rank 1", deg)
	}
	if deg.DroppedTokens == 0 {
		t.Fatal("backward-time failure cleared no slots")
	}
	if deg.ReroutedTokens != 0 {
		t.Fatalf("backward-time failure re-routed %d tokens; routing must be kept", deg.ReroutedTokens)
	}
	expectZeroGrads(t, layer, deg.LostExperts, "degraded-backward")
	expectZeroGateGrads(t, layer, "degraded-backward")

	// Recovery: clear the injector and the health mark, and the world is
	// bit-identical to the sequential reference again.
	w.SetFaultPlan(nil)
	w.ResetHealth()
	layer.ZeroGrad()
	y2, cache2, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.LastDegraded() != nil {
		t.Fatal("ResetHealth did not clear degraded state")
	}
	dx2, err := w.Backward(cache2, dy)
	if err != nil {
		t.Fatal(err)
	}
	compareSnapshots(t, "post-reset", want, worldSnapshot{y: y2, dx: dx2, grads: snapGrads(layer)})
}

// TestWorldCloseGuard: Close is idempotent-checked and stepping a closed
// world fails with the typed error.
func TestWorldCloseGuard(t *testing.T) {
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 1, Strategy: StrategyEP})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(xrand.New(87), 1, 96, 32)
	if err := w.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("double Close error = %v, want ErrWorldClosed", err)
	}
	if _, _, err := w.Forward(x, false); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("Forward after Close error = %v, want ErrWorldClosed", err)
	}
	if _, err := w.Backward(&WorldCache{}, x); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("Backward after Close error = %v, want ErrWorldClosed", err)
	}
}

// TestWorldDeadline: an expired per-plan deadline aborts the pass with
// context.DeadlineExceeded; clearing the deadline restores normal
// bit-identical stepping on the same world.
func TestWorldDeadline(t *testing.T) {
	x := tensor.RandN(xrand.New(88), 1, 96, 32)
	dy := tensor.RandN(xrand.New(89), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)

	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP})
	if err != nil {
		t.Fatal(err)
	}
	w.SetSequential(true) // the sequential executor polls ctx before every task: deterministic abort
	w.SetDeadline(time.Nanosecond)
	layer.ZeroGrad()
	if _, _, err := w.Forward(x, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Forward under expired deadline = %v, want DeadlineExceeded", err)
	}

	w.SetDeadline(0)
	layer.ZeroGrad()
	y, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := w.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	compareSnapshots(t, "post-deadline", want, worldSnapshot{y: y, dx: dx, grads: snapGrads(layer)})
}

// TestWorldStepDegraded: a permanent rank failure inside a multi-layer
// §5 training step does not abort it — the degraded layer completes on
// the fallback path, the Gradient-AllReduce still synchronizes every
// layer's gradients (slices parked for the degraded layer's never-built
// plan return to the pool), and the post-step parameters equal a twin's
// that meets the same fault while stepping sequentially with the
// AllReduce exposed.
func TestWorldStepDegraded(t *testing.T) {
	const layers, ranks, lr = 2, 4, 0.05
	x := tensor.RandN(xrand.New(91), 1, 96, 32)
	dy := tensor.RandN(xrand.New(92), 1, 96, 32)
	ws := stepStack(t, layers, ranks, 2, false)
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 6, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))

	res, err := StepWorlds(ws, x, dy, StepConfig{LR: lr, ChunkBytes: 64 << 10, Slices: 3})
	if err != nil {
		t.Fatalf("degraded step must complete, got %v", err)
	}
	if len(res.Degraded) != 1 {
		t.Fatalf("res.Degraded has %d entries, want 1", len(res.Degraded))
	}
	deg := res.Degraded[0]
	if deg.Rank != 1 || deg.Phase != "forward" {
		t.Fatalf("DegradedResult rank/phase = %d/%q, want 1/forward", deg.Rank, deg.Phase)
	}
	if deg.RecoveryMS <= 0 || res.BackwardMS < deg.RecoveryMS {
		t.Fatalf("RecoveryMS %v not charged into BackwardMS %v", deg.RecoveryMS, res.BackwardMS)
	}
	twin := stepStack(t, layers, ranks, 2, false)
	twin[0].SetFaultPlan(fault.New(fault.Spec{Seed: 6, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	want, err := StepWorlds(twin, x, dy, StepConfig{LR: lr, Sequential: true, Strategy: gradsync.StrategyNoOverlap})
	if err != nil {
		t.Fatalf("degraded twin step must complete, got %v", err)
	}
	sameAsTwin(t, "degraded step", res, want)
	if total := res.Report.HiddenBytes + res.Report.TailBytes; total != res.Report.TotalBytes {
		t.Fatalf("synced %v of %v bytes across the degraded step", total, res.Report.TotalBytes)
	}

	// The healthy layer must still have stepped its dead-rank-free
	// parameters with real gradients; the degraded layer's dead experts
	// must be frozen (stepped by exactly zero).
	if hs := ws[0].Health(); hs[1] {
		t.Fatal("rank 1 still reported healthy after the degraded step")
	}
}

// TestWorldDegradedRunsHooks: a pass completed on the degraded path runs
// the layer's dispatch and combine hooks on its own buffers, as a full-
// strength pass does: the aborted plan's pass applied the dispatch pair
// before it failed and never reached the combine pair.
func TestWorldDegradedRunsHooks(t *testing.T) {
	counts := map[string]int{}
	count := func(name string) func(*tensor.Tensor) *tensor.Tensor {
		return func(x *tensor.Tensor) *tensor.Tensor { counts[name]++; return x }
	}
	layer := withHooks(t, worldLayer(t, "gshard", TutelOrder{}, false, false), Hooks{
		BeforeDispatch: count("dispatch"), AfterCombine: count("combine"),
	})
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetFaultPlan(fault.New(fault.Spec{Seed: 3, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	x := tensor.RandN(xrand.New(83), 1, 96, 32)
	for pass, want := range []map[string]int{{"dispatch": 2, "combine": 1}, {"dispatch": 3, "combine": 2}} {
		if _, _, err := w.Forward(x, false); err != nil || w.LastDegraded() == nil {
			t.Fatalf("pass %d: degraded forward must complete, got %v", pass, err)
		}
		if fmt.Sprint(counts) != fmt.Sprint(want) {
			t.Fatalf("pass %d: hooks fired %v, want %v", pass, counts, want)
		}
	}
}

// planGate routes every input to one fixed plan and contributes no
// gradient: the router a degraded pass freezes, over the plan it ran.
type planGate struct{ plan *DispatchPlan }

func (g planGate) Name() string { return "plan" }
func (g planGate) Route(x *tensor.Tensor, _ bool) (*DispatchPlan, *RouteCache, error) {
	return g.plan, &RouteCache{X: x, Plan: g.plan}, nil
}
func (planGate) Backward(dx *tensor.Tensor, _ *RouteCache, _ *PlanGrad) { clear(dx.Data()) }
func (planGate) Params() []*Param                                       { return nil }

// TestWorldDegradedMatchesOracle: a pass that loses rank 1, in its forward
// or in its backward plan, under EP, ESP and hybrid g = 2 at R = 4 and
// under both orders, gives the oracle's Y (of a forward-time loss), dx and
// expert gradients, run over the surviving experts alone on survivorPlan's
// plan with the dead experts' slot tables — which must be empty — left out,
// and a frozen router; the dead experts' and the gate's gradients are
// exactly zero.
func TestWorldDegradedMatchesOracle(t *testing.T) {
	x := tensor.RandN(xrand.New(361), 1, 96, 32)
	dy := tensor.RandN(xrand.New(362), 1, 96, 32)
	for _, order := range []Order{TutelOrder{}, GShardOrder{}} {
		for _, cfg := range []WorldConfig{
			{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP},
			{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP},
			{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2},
		} {
			for _, phase := range []string{"forward", "backward"} {
				label := fmt.Sprintf("%T %s g=%d %s-time loss", order, cfg.Strategy, cfg.GroupSize, phase)
				layer := worldLayer(t, "gshard", order, false, false)
				w, err := NewWorld(layer, cfg)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := 1*w.egrp, 2*w.egrp
				routed, _, err := layer.cfg.Gate.Route(x.Reshape(96, 32), false)
				if err != nil {
					t.Fatal(err)
				}
				plan, rerouted, dropped := survivorPlan(routed, lo, hi, phase == "forward")
				for e := lo; e < hi; e++ {
					for s, tok := range plan.SlotToken[e] {
						if tok >= 0 || math.Float64bits(plan.SlotWeight[e][s]) != 0 {
							t.Fatalf("%s: dead expert %d keeps slot %d (token %d, weight %v)", label, e, s, tok, plan.SlotWeight[e][s])
						}
					}
				}
				surv := *plan
				surv.Experts -= hi - lo
				surv.SlotToken = append(plan.SlotToken[:lo:lo], plan.SlotToken[hi:]...)
				surv.SlotWeight = append(plan.SlotWeight[:lo:lo], plan.SlotWeight[hi:]...)
				oracle, err := NewMOELayer(LayerConfig{M: layer.cfg.M, Gate: planGate{&surv}, Order: layer.cfg.Order,
					Experts: append(layer.cfg.Experts[:lo:lo], layer.cfg.Experts[hi:]...)})
				if err != nil {
					t.Fatal(err)
				}

				down := fault.New(fault.Spec{Seed: 3, Down: &fault.Down{Rank: 1, Kind: KindExpert}})
				if phase == "forward" {
					w.SetFaultPlan(down)
				}
				layer.ZeroGrad()
				y, cache, err := w.Forward(x, false)
				if err != nil {
					t.Fatal(err)
				}
				w.SetFaultPlan(down)
				dx, err := w.Backward(cache, dy)
				if err != nil {
					t.Fatal(err)
				}
				deg := w.LastDegraded()
				if deg == nil || deg.Phase != phase || fmt.Sprint(deg.LostExperts) != fmt.Sprint(lostList(lo, hi)) {
					t.Fatalf("%s: DegradedResult = %+v", label, deg)
				}
				if deg.ReroutedTokens != rerouted || deg.DroppedTokens != dropped {
					t.Fatalf("%s: rerouted/dropped %d/%d, survivorPlan's %d/%d", label, deg.ReroutedTokens, deg.DroppedTokens, rerouted, dropped)
				}
				expectZeroGrads(t, layer, deg.LostExperts, label)
				expectZeroGateGrads(t, layer, label)
				got := worldSnapshot{y: y, dx: dx, grads: snapGrads(oracle)} // the survivors' gradients
				want := runSequentialLayer(t, oracle, x, dy)
				if phase == "backward" {
					want.y = got.y // the forward ran at full strength
				}
				compareSnapshots(t, label, want, got)
				w.Close()
			}
		}
	}
}

// TestStepRejectsAliasedDegradedOutputs: once a layer runs degraded, the
// stack-owned outputs live in the layer's own World's workspace, and a step
// fed them is refused all the same.
func TestStepRejectsAliasedDegradedOutputs(t *testing.T) {
	x := tensor.RandN(xrand.New(363), 1, 96, 32)
	dy := tensor.RandN(xrand.New(364), 1, 96, 32)
	ws := stepStack(t, 1, 4, 2, false)
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 6, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	cfg := StepConfig{LR: 0.05}
	res, err := StepWorlds(ws, x, dy, cfg)
	if err != nil || len(res.Degraded) == 0 {
		t.Fatalf("degraded step: err %v, %d degraded passes", err, len(res.Degraded))
	}
	for _, bad := range []struct {
		name  string
		x, dy *tensor.Tensor
	}{{"x = Y", res.Y, dy}, {"dy = DX", x, res.DX}} {
		if _, err := StepWorlds(ws, bad.x, bad.dy, cfg); !errors.Is(err, ErrStepInputAliased) {
			t.Fatalf("%s: err %v, want ErrStepInputAliased", bad.name, err)
		}
	}
}

// TestStepDownNegativeRank: a Down at rank −1 matches no stream — the
// shared ones ("inter", "intra:g<G>", "route") report rank −1 too — so a
// 1-layer EP stack at R = 4 steps at full strength, bit-identical to a
// fault-free twin.
func TestStepDownNegativeRank(t *testing.T) {
	x := tensor.RandN(xrand.New(365), 1, 96, 32)
	dy := tensor.RandN(xrand.New(366), 1, 96, 32)
	ws, twin := stepStack(t, 1, 4, 2, false), stepStack(t, 1, 4, 2, false)
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 8, Down: &fault.Down{Rank: -1}}))
	cfg := StepConfig{LR: 0.05}
	for s := 0; s < 2; s++ {
		got, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if len(got.Degraded) != 0 || ws[0].LastDegraded() != nil || !slices.Equal(ws[0].Health(), []bool{true, true, true, true}) {
			t.Fatalf("step %d: a rank −1 Down degraded the step: %v", s, got.Degraded)
		}
		want, err := StepWorlds(twin, x, dy, cfg)
		if err != nil {
			t.Fatalf("step %d twin: %v", s, err)
		}
		sameAsTwin(t, fmt.Sprintf("step %d", s), got, want)
	}
}
