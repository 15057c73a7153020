package moe

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// injectedCollective is the message of a failure a collective's guard
// injects (fault.Plan.Guard), as opposed to one Check injects before a task
// body runs.
const injectedCollective = "injected collective failure"

// TestEveryCollectiveTaskHitsItsGuard: every collective task of every plan
// the one builder emits — EP, ESP, hybrid g = 2 and DenseSlots, forward and
// backward, R = 4, r = 2 — runs its collective behind a guard minted for
// that task, and no other task runs one.
//
// Under a collective-only spec at probability 1, capped at one transient per
// task, each AlltoAll/AllGather/ReduceScatter task carries exactly one
// injected collective failure and every other task none: a task whose guard
// is missing carries none. With task-level injection at probability 1 added,
// a guard that knows its task counts the task-level failure as the cap's one
// attempt and passes, so each collective task carries exactly one fault and
// no collective failure: a guard minted on no task (or on the wrong one)
// fails a second time. Either way the pass stays bit-identical to the
// sequential layer. Every decision here is at probability 0 or 1, so the
// test does not pass by the seed's luck.
//
// Recover's weight re-placement Broadcasts run outside any plan, behind
// their own guards: each absorbs exactly one retry.
func TestEveryCollectiveTaskHitsItsGuard(t *testing.T) {
	x := tensor.RandN(xrand.New(61), 1, 96, 32)
	dy := tensor.RandN(xrand.New(62), 1, 96, 32)
	levels := []struct {
		name      string
		spec      fault.Spec
		collFault int // injected collective failures per collective task
	}{
		{"collective", fault.Spec{CollectiveProb: 1, MaxTransientsPerTask: 1}, 1},
		{"task+collective", fault.Spec{
			KindProb:       map[string]float64{KindA2A: 1, KindAG: 1, KindRS: 1},
			CollectiveProb: 1, MaxTransientsPerTask: 1,
		}, 0},
	}
	for _, tc := range []struct {
		strat Strategy
		g     int
	}{{StrategyEP, 0}, {StrategyESP, 0}, {StrategyHybrid, 2}, {StrategyDenseSlots, 0}} {
		layer := strategyLayer(t, tc.strat, false)
		want := runSequentialLayer(t, layer, x, dy)
		for _, lv := range levels {
			label := fmt.Sprintf("%s g=%d %s", tc.strat, tc.g, lv.name)
			w, err := NewWorld(layer, WorldConfig{Ranks: 4, ChunksFwd: 2, Strategy: tc.strat, GroupSize: tc.g})
			if err != nil {
				t.Fatal(err)
			}
			w.SetFaultPlan(fault.New(lv.spec))
			w.SetRetry(fastRetry())
			layer.ZeroGrad()
			y, cache, err := w.Forward(x, false)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			expectGuardFaults(t, label+" forward", w, lv.collFault)
			dx, err := w.Backward(cache, dy)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			expectGuardFaults(t, label+" backward", w, lv.collFault)
			compareSnapshots(t, label, want, worldSnapshot{y: y, dx: dx, grads: snapGrads(layer)})
			w.Close()
		}
	}

	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, ChunksFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	snap := w.Snapshot()
	spec := levels[0].spec
	spec.Down = &fault.Down{Rank: 1, Kind: KindExpert}
	w.SetFaultPlan(fault.New(spec))
	w.SetRetry(fastRetry())
	layer.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Backward(cache, dy); err != nil {
		t.Fatal(err)
	}
	rep, err := w.Recover(snap, RecoveryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MovedExperts) == 0 || rep.Retries != len(rep.MovedExperts) {
		t.Fatalf("recovery moved experts %v with %d retries, want one retry per Broadcast", rep.MovedExperts, rep.Retries)
	}
}

// expectGuardFaults checks the last pass's trace against its plan: every
// collective task carries exactly one fault event, collFault of them
// injected by its guard, and every other task carries none.
func expectGuardFaults(t *testing.T, label string, w *World, collFault int) {
	t.Helper()
	p, tr := w.LastPlan(), w.LastTrace()
	if p == nil || tr == nil {
		t.Fatalf("%s: no plan ran", label)
	}
	faults, coll := map[int]int{}, map[int]int{}
	for _, ev := range tr.Events {
		if ev.Type != sim.EventFault {
			continue
		}
		faults[ev.TaskID]++
		if strings.Contains(ev.Detail, injectedCollective) {
			coll[ev.TaskID]++
		}
	}
	collectives := 0
	for _, ti := range p.Tasks() {
		wantFaults, wantColl := 0, 0
		if ti.Kind == KindA2A || ti.Kind == KindAG || ti.Kind == KindRS {
			wantFaults, wantColl = 1, collFault
			collectives++
		}
		if faults[ti.ID] != wantFaults || coll[ti.ID] != wantColl {
			t.Fatalf("%s: task %d %q (%s) carries %d faults, %d from its guard; want %d and %d",
				label, ti.ID, ti.Label, ti.Kind, faults[ti.ID], coll[ti.ID], wantFaults, wantColl)
		}
	}
	if collectives == 0 {
		t.Fatalf("%s: plan has no collective task", label)
	}
}
