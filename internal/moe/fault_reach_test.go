package moe

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestEveryCollectiveTaskTakesOneFault: every collective task of every plan
// the one builder emits — EP, ESP, hybrid g = 2 and DenseSlots, and ESP and
// hybrid g = 2 over dense routing, forward and backward, R = 4, r = 2 — is
// reachable by the injector, and no other task
// is hit. Under task-level injection at probability 1 on the AlltoAll,
// AllGather and ReduceScatter kinds, capped at one transient per task, each
// such task carries exactly one fault and every other task none, and the
// pass stays bit-identical to the sequential layer. Every decision here is
// at probability 0 or 1, so the test does not pass by the seed's luck.
//
// Recover's weight re-placement Broadcasts run outside any plan, behind the
// same check: under KindProb[Broadcast] = 1, capped at one, each absorbs
// exactly one retry.
func TestEveryCollectiveTaskTakesOneFault(t *testing.T) {
	x := tensor.RandN(xrand.New(61), 1, 96, 32)
	dy := tensor.RandN(xrand.New(62), 1, 96, 32)
	spec := fault.Spec{KindProb: map[string]float64{KindA2A: 1, KindAG: 1, KindRS: 1}, MaxTransientsPerTask: 1}
	for _, tc := range []struct {
		strat Strategy
		g     int
		dense bool
	}{{StrategyEP, 0, false}, {StrategyESP, 0, false}, {StrategyHybrid, 2, false}, {StrategyDenseSlots, 0, true},
		{StrategyESP, 0, true}, {StrategyHybrid, 2, true}} {
		layer := routingLayer(t, tc.dense, false)
		want := runSequentialLayer(t, layer, x, dy)
		label := fmt.Sprintf("%s g=%d dense=%v", tc.strat, tc.g, tc.dense)
		w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: tc.strat, GroupSize: tc.g})
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaultPlan(fault.New(spec))
		layer.ZeroGrad()
		y, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		expectCollectiveFaults(t, label+" forward", w)
		dx, err := w.Backward(cache, dy)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		expectCollectiveFaults(t, label+" backward", w)
		compareSnapshots(t, label, want, worldSnapshot{y: y, dx: dx, grads: snapGrads(layer)})
		w.Close()
	}

	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	snap := SnapshotWorlds([]*World{w})
	w.SetFaultPlan(fault.New(fault.Spec{
		KindProb:             map[string]float64{sim.KindBroadcast: 1},
		MaxTransientsPerTask: 1,
		Down:                 &fault.Down{Rank: 1, Kind: KindExpert},
	}))
	layer.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Backward(cache, dy); err != nil {
		t.Fatal(err)
	}
	reps, err := RecoverWorlds([]*World{w}, snap, RecoveryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := reps[0]; len(rep.MovedExperts) == 0 || rep.Retries != len(rep.MovedExperts) {
		t.Fatalf("recovery moved experts %v with %d retries, want one retry per Broadcast", rep.MovedExperts, rep.Retries)
	}
}

// expectCollectiveFaults checks the last pass's trace against its plan:
// every collective task carries exactly one fault event, and every other
// task none.
func expectCollectiveFaults(t *testing.T, label string, w *World) {
	t.Helper()
	p, tr := w.LastPlan(), w.LastTrace()
	if p == nil || tr == nil {
		t.Fatalf("%s: no plan ran", label)
	}
	faults := map[int]int{}
	for _, ev := range tr.Events {
		if ev.Type == sim.EventFault {
			faults[ev.TaskID]++
		}
	}
	collectives := 0
	for _, ti := range p.Tasks() {
		want := 0
		if ti.Kind == KindA2A || ti.Kind == KindAG || ti.Kind == KindRS {
			want = 1
			collectives++
		}
		if faults[ti.ID] != want {
			t.Fatalf("%s: task %d %q (%s) carries %d faults, want %d", label, ti.ID, ti.Label, ti.Kind, faults[ti.ID], want)
		}
	}
	if collectives == 0 {
		t.Fatalf("%s: plan has no collective task", label)
	}
}
