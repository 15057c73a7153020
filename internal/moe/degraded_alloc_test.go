package moe

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/fault"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// degradedStepBound is TestDegradedStepAllocationBound's byte allowance for
// one warm degraded step of its 2-layer stack, with and without the race
// detector. The degraded passes run on the layers' own Worlds with all
// eight experts in place, the dead ones' passes resident and re-armed like
// the rest, so a warm step begins no pass: it read 23 712 B in 63
// allocations on 1 999 of 2 000 runs, and at most 23 760 B (23 712 to
// 24 208 B in 50 runs under -race). When every forward began every pass,
// the dead experts' included, it read 27 808 B in 127. The allowance is 1.5×
// the reading: room for one OS thread the runtime starts inside the window
// (5.1 KiB, see stepLayerSlack), not for a per-layer plane.
const degradedStepBound = 23712 * 3 / 2

// TestDegradedStepAllocationBound: a warm degraded step — a 2-layer EP
// stack at R = 4 whose rank 1 is down on every layer — allocates under
// degradedStepBound. What a degraded pass allocates per step is its own
// bookkeeping: the plan survivorPlan makes, the report and its cause, and
// the caches; the workspaces and plans of the layers' own Worlds are
// resident and replayed like every other World's. The collector is off for
// the window, as in TestStepAllocationBound.
func TestDegradedStepAllocationBound(t *testing.T) {
	const layers, ranks = 2, 4
	ws := stepStack(t, layers, ranks, 2, false)
	for _, w := range ws {
		defer w.Close()
		w.SetFaultPlan(fault.New(fault.Spec{Seed: 7, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	}
	x := tensor.RandN(xrand.New(371), 1, 96, 32)
	dy := tensor.RandN(xrand.New(372), 1, 96, 32)
	cfg := StepConfig{LR: 0.01}

	spareThreads(runtime.GOMAXPROCS(0) + 4)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var bytes, mallocs uint64
	for s := 0; s < 4; s++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if len(res.Degraded) != layers {
			t.Fatalf("step %d: %d degraded passes, want %d", s, len(res.Degraded), layers)
		}
		bytes, mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs // the last: after three warm-ups
	}
	t.Logf("a warm degraded step allocated %d bytes in %d allocations, bound %d", bytes, mallocs, degradedStepBound)
	if bytes >= degradedStepBound {
		t.Fatalf("a warm degraded step allocated %d bytes in %d allocations, want under %d", bytes, mallocs, degradedStepBound)
	}
}
