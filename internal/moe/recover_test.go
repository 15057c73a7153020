package moe

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestWorldSnapshotRestore: SnapshotWorlds/RestoreWorlds round-trip the full
// mutable training state — parameters, counters, gate RNG — and a restored
// world replays the snapshot timeline bit-for-bit even after later steps
// mutated everything.
func TestWorldSnapshotRestore(t *testing.T) {
	x := tensor.RandN(xrand.New(201), 1, 96, 32)
	dy := tensor.RandN(xrand.New(202), 1, 96, 32)
	cfg := StepConfig{LR: 0.05, Train: true, ChunkBytes: 64 << 10, Slices: 3}

	ws := stepStack(t, 1, 4, 2, false)
	w := ws[0]
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatal(err)
	}
	snap := SnapshotWorlds(ws)
	if snap.Worlds[0].Steps != 1 {
		t.Fatalf("snapshot Steps = %d, want 1", snap.Worlds[0].Steps)
	}
	if len(snap.Worlds[0].GateRNG) != 1 {
		t.Fatal("gshard gate RNG state not captured")
	}

	// Two more (noisy, so RNG-consuming) steps from the snapshot point,
	// recording the post-step parameters (copied: RankParams is the world's
	// resident buffer, which the next step overwrites).
	var timeline [][]float64
	for s := 0; s < 2; s++ {
		res, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		timeline = append(timeline, slices.Clone(res.RankParams[0]))
	}

	// Roll back and replay: the same two steps must be bit-identical —
	// parameters AND the gate's noise stream were restored.
	if err := RestoreWorlds(ws, snap); err != nil {
		t.Fatal(err)
	}
	if w.steps != 1 {
		t.Fatalf("restored steps = %d, want 1", w.steps)
	}
	for i, want := range timeline {
		got, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameRow(t, fmt.Sprintf("replayed step %d", i), got, want)
	}

	// A shape-mismatched snapshot is rejected wholesale, not half-applied.
	bad := SnapshotWorlds(ws)
	bad.Worlds[0].Experts = bad.Worlds[0].Experts[:len(bad.Worlds[0].Experts)-1]
	if err := RestoreWorlds(ws, bad); err == nil {
		t.Fatal("restore of a mismatched snapshot must fail")
	}
}

// TestRestoreChecksShapes: a snapshot whose expert tensor has the right
// name and element count but a transposed shape — ffn.w1 as (H, M) instead
// of (M, H) — is refused by RestoreWorlds and by RecoverWorlds, and every
// world stays bit for bit as it was: parameters, gradients, counters, rank
// count and health.
func TestRestoreChecksShapes(t *testing.T) {
	x := tensor.RandN(xrand.New(215), 1, 96, 32)
	dy := tensor.RandN(xrand.New(216), 1, 96, 32)
	cfg := StepConfig{LR: 0.05, ChunkBytes: 64 << 10, Slices: 3}
	ws := stepStack(t, 2, 4, 2, false)
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatal(err)
	}
	bad := SnapshotWorlds(ws)
	tt := &bad.Worlds[1].Experts[2][0]
	if tt.Name != "ffn.w1" || len(tt.Shape) != 2 || tt.Shape[0] == tt.Shape[1] {
		t.Fatalf("expert tensor %q%v: want a non-square ffn.w1", tt.Name, tt.Shape)
	}
	tt.Shape = []int{tt.Shape[1], tt.Shape[0]}
	// The stack moves on from the snapshot, then a rank goes down for good.
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 3, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatal(err)
	}

	type state struct {
		w, g               []float64
		steps, ranks, down int
	}
	capture := func() []state {
		var out []state
		for _, w := range ws {
			st := state{steps: w.steps, ranks: w.Ranks(), down: w.down}
			for _, p := range w.layer.Params() {
				st.w = append(st.w, p.W.Data()...)
				st.g = append(st.g, p.G.Data()...)
			}
			out = append(out, st)
		}
		return out
	}
	same := func(label string, want []state) {
		t.Helper()
		for i, g := range capture() {
			w := want[i]
			if g.steps != w.steps || g.ranks != w.ranks || g.down != w.down {
				t.Fatalf("%s: layer %d now at step %d, %d ranks, down %d; was %d, %d, %d", label, i, g.steps, g.ranks, g.down, w.steps, w.ranks, w.down)
			}
			for k := range w.w {
				if math.Float64bits(g.w[k]) != math.Float64bits(w.w[k]) || math.Float64bits(g.g[k]) != math.Float64bits(w.g[k]) {
					t.Fatalf("%s: layer %d element %d changed", label, i, k)
				}
			}
		}
	}
	before := capture()
	if err := RestoreWorlds(ws, bad); err == nil {
		t.Fatal("restore of a transposed expert tensor must fail")
	}
	same("refused restore", before)
	if _, err := RecoverWorlds(ws, bad, RecoveryPolicy{}); err == nil {
		t.Fatal("recovery from a transposed expert tensor must fail")
	}
	same("refused recovery", before)
}

// tempManager is a checkpoint manager over a fresh temp directory that
// waits for its commit in flight before the directory is removed.
func tempManager(t *testing.T) *ckpt.Manager {
	m := &ckpt.Manager{Dir: t.TempDir()}
	t.Cleanup(func() { _ = m.Wait() })
	return m
}

// TestWorldStepCheckpointCadence: StepConfig.Checkpoint writes snapshots
// on the configured cadence through the atomic manager. CheckpointPath and
// the checkpoint stall's telemetry are set on exactly the cadence steps,
// and the path is the one that step's snapshot commits to.
func TestWorldStepCheckpointCadence(t *testing.T) {
	x := tensor.RandN(xrand.New(203), 1, 96, 32)
	dy := tensor.RandN(xrand.New(204), 1, 96, 32)
	mgr := tempManager(t)
	ws := stepStack(t, 1, 4, 2, false)
	ws[0].cfg.Sink = sinkFunc(func(*telemetry.StepMetrics) {})
	cfg := StepConfig{LR: 0.05, ChunkBytes: 64 << 10, Slices: 3, Checkpoint: mgr, CheckpointEvery: 2}
	for s := 0; s < 4; s++ {
		res, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantPath := ""
		if s%2 == 1 {
			wantPath = filepath.Join(mgr.Dir, fmt.Sprintf("step-%012d%s", s+1, ckpt.Ext))
		}
		if res.CheckpointPath != wantPath {
			t.Fatalf("step %d: CheckpointPath = %q, want %q (cadence is every 2nd step)", s, res.CheckpointPath, wantPath)
		}
		if m := res.Metrics; (m.CheckpointCaptureMS > 0) != (wantPath != "") || m.CheckpointWaitMS < 0 {
			t.Fatalf("step %d: checkpoint capture %v ms, wait %v ms; want a capture on exactly the cadence steps",
				s, m.CheckpointCaptureMS, m.CheckpointWaitMS)
		}
	}
	paths, err := mgr.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("%d checkpoints on disk, want 2 (steps 2 and 4)", len(paths))
	}
	snap, err := mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 4 {
		t.Fatalf("latest checkpoint is step %d, want 4", snap.Step)
	}
}

// TestWorldRecoverBitIdentical is the headline elastic-recovery contract:
// kill a rank mid-run under chaos injection, recover the stack from the
// latest checkpoint onto the surviving topology, keep training — and the
// recovered run is bit-identical to a reference run restarted from the
// same checkpoint on the same surviving topology.
func TestWorldRecoverBitIdentical(t *testing.T) {
	const layers, ranks, lr = 2, 4, 0.05
	x := tensor.RandN(xrand.New(205), 1, 96, 32)
	dy := tensor.RandN(xrand.New(206), 1, 96, 32)
	mgr := tempManager(t)
	cfg := StepConfig{LR: lr, Train: true, ChunkBytes: 64 << 10, Slices: 3}

	// Two healthy checkpointed steps (noisy gating on, so recovery must
	// restore the gates' RNG streams too).
	ws := stepStack(t, layers, ranks, 2, false)
	ckptCfg := cfg
	ckptCfg.Checkpoint = mgr
	for s := 0; s < 2; s++ {
		if _, err := StepWorlds(ws, x, dy, ckptCfg); err != nil {
			t.Fatal(err)
		}
	}

	// Kill rank 1 permanently; the next step survives on the degraded path
	// (checkpointing off, so the pre-failure snapshot stays latest).
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 7, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	res, err := StepWorlds(ws, x, dy, cfg)
	if err != nil {
		t.Fatalf("degraded step must complete, got %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("rank-down never fired")
	}

	// Recover: roll back to the checkpoint, shrink onto the survivors.
	snap, err := mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 2 {
		t.Fatalf("latest checkpoint is step %d, want 2", snap.Step)
	}
	reports, err := RecoverWorlds(ws, snap, RecoveryPolicy{Mode: RecoverShrink})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != layers {
		t.Fatalf("%d recovery reports, want %d", len(reports), layers)
	}
	for i, rep := range reports {
		if rep.DownRank != 1 || rep.OldRanks != ranks || rep.NewRanks != 2 {
			t.Fatalf("layer %d report = %+v, want down=1 4→2 ranks", i, rep)
		}
		if rep.RestoredStep != 2 {
			t.Fatalf("layer %d restored to step %d, want 2", i, rep.RestoredStep)
		}
		if len(rep.MovedExperts) == 0 || rep.Traffic.IntraMessages+rep.Traffic.InterMessages == 0 {
			t.Fatalf("layer %d moved no expert weights: %+v", i, rep)
		}
		if rep.RecoveryMS <= 0 {
			t.Fatalf("layer %d RecoveryMS not measured", i)
		}
	}
	for _, w := range ws {
		if w.Ranks() != 2 {
			t.Fatalf("recovered world has %d ranks, want 2", w.Ranks())
		}
		for r, ok := range w.Health() {
			if !ok {
				t.Fatalf("recovered world still reports rank %d down", r)
			}
		}
		if w.LastDegraded() != nil || w.LastPlan() != nil || w.LastTrace() != nil {
			t.Fatal("recovery left degraded/plan/trace residue")
		}
	}

	// Reference: a fresh stack built directly at the surviving topology and
	// restored from the very same checkpoint.
	ref := stepStack(t, layers, 2, 2, false)
	if err := RestoreWorlds(ref, snap); err != nil {
		t.Fatal(err)
	}

	// Keep training both; every post-recovery step must match bit-for-bit.
	for s := 0; s < 3; s++ {
		got, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatalf("post-recovery step %d: %v", s, err)
		}
		want, err := StepWorlds(ref, x, dy, cfg)
		if err != nil {
			t.Fatalf("reference step %d: %v", s, err)
		}
		sameAsTwin(t, fmt.Sprintf("post-recovery step %d", s), got, want)
	}
}

// TestRecoverWorldsAllOrNothing: a weight re-placement broadcast that
// exhausts its retries on layer 1 fails the whole recovery with a transient
// error and leaves every world at its old rank count, the down rank still
// reported: the stack still steps (degraded), and once the injector is
// removed a second recovery succeeds and steps bit-identically to a fresh
// stack at the surviving rank count restored from the same snapshot.
func TestRecoverWorldsAllOrNothing(t *testing.T) {
	const layers, ranks = 2, 4
	x := tensor.RandN(xrand.New(217), 1, 96, 32)
	dy := tensor.RandN(xrand.New(218), 1, 96, 32)
	cfg := StepConfig{LR: 0.05, ChunkBytes: 64 << 10, Slices: 3}
	ws := stepStack(t, layers, ranks, 2, false)
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatal(err)
	}
	snap := SnapshotWorlds(ws)
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 3, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	ws[1].SetFaultPlan(fault.New(fault.Spec{Seed: 3, KindProb: map[string]float64{sim.KindBroadcast: 1}}))
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatal(err)
	}
	unchanged := func(label string) {
		t.Helper()
		for i, w := range ws {
			if w.Ranks() != ranks {
				t.Fatalf("%s: layer %d has %d ranks, want %d", label, i, w.Ranks(), ranks)
			}
		}
		if ws[0].Health()[1] {
			t.Fatalf("%s: rank 1 no longer reported down", label)
		}
	}
	if _, err := RecoverWorlds(ws, snap, RecoveryPolicy{}); !fault.IsTransient(err) || !strings.Contains(err.Error(), "layer 1") {
		t.Fatalf("recovery under failing layer-1 broadcasts: err %v, want layer 1's transient", err)
	}
	unchanged("failed recovery")
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatalf("the stack must still step after a failed recovery: %v", err)
	}
	unchanged("step after the failed recovery")

	ws[1].SetFaultPlan(nil)
	if _, err := RecoverWorlds(ws, snap, RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}
	ref := stepStack(t, layers, 2, 2, false)
	if err := RestoreWorlds(ref, snap); err != nil {
		t.Fatal(err)
	}
	got, err := StepWorlds(ws, x, dy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := StepWorlds(ref, x, dy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameAsTwin(t, "recovered step", got, want)
}

// TestWorldRecoverKeepsStrategy: a sharded world recovers as itself — a
// hybrid g=2 world at R=4 as hybrid g′ = gcd(2, 2) = 2 at R′=2, an ESP world
// as ESP at R′=2 — and the recovered world passes bit-identically to a fresh
// world of the same (strategy, R′, g′) restored from the same snapshot, and
// to the sequential layer.
func TestWorldRecoverKeepsStrategy(t *testing.T) {
	x := tensor.RandN(xrand.New(209), 1, 96, 32)
	dy := tensor.RandN(xrand.New(210), 1, 96, 32)
	pass := func(label string, l *MOELayer, w *World) worldSnapshot {
		t.Helper()
		l.ZeroGrad()
		y, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		dx, err := w.Backward(cache, dy)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return worldSnapshot{y: y, dx: dx, grads: snapGrads(l)}
	}
	for _, tc := range []struct {
		strat    Strategy
		g, wantG int // configured, and reported after recovery
	}{
		{StrategyHybrid, 2, 2},
		{StrategyESP, 0, 0},
	} {
		layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: tc.strat, GroupSize: tc.g})
		if err != nil {
			t.Fatal(err)
		}
		snap := SnapshotWorlds([]*World{w})
		w.SetFaultPlan(fault.New(fault.Spec{Seed: 11, Down: &fault.Down{Rank: 2, Kind: KindExpert}}))
		pass("degraded", layer, w)
		if w.LastDegraded() == nil {
			t.Fatalf("%s: rank-down never fired", tc.strat)
		}
		reps, err := RecoverWorlds([]*World{w}, snap, RecoveryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		rep := reps[0]
		if rep.OldStrategy != tc.strat || rep.NewStrategy != tc.strat || rep.OldGroupSize != tc.g || rep.NewGroupSize != tc.wantG {
			t.Fatalf("reported transition = %s g=%d → %s g=%d, want %s g=%d kept at g=%d",
				rep.OldStrategy, rep.OldGroupSize, rep.NewStrategy, rep.NewGroupSize, tc.strat, tc.g, tc.wantG)
		}
		if rep.NewRanks != 2 || w.Ranks() != 2 || w.Strategy() != tc.strat || w.GroupSize() != tc.wantG {
			t.Fatalf("recovered topology = R=%d %s g=%d, want R=2 %s g=%d", w.Ranks(), w.Strategy(), w.GroupSize(), tc.strat, tc.wantG)
		}
		got := pass("recovered", layer, w)

		freshLayer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		fresh, err := NewWorld(freshLayer, WorldConfig{Ranks: 2, PipelineDegree: 2, Strategy: tc.strat, GroupSize: tc.wantG})
		if err != nil {
			t.Fatal(err)
		}
		if err := RestoreWorlds([]*World{fresh}, snap); err != nil {
			t.Fatal(err)
		}
		compareSnapshots(t, string(tc.strat)+" recovered vs fresh", pass("fresh", freshLayer, fresh), got)
		seqLayer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		compareSnapshots(t, string(tc.strat)+" recovered vs sequential", runSequentialLayer(t, seqLayer, x, dy), got)
		// The recovered plans are the sharded ones, not an EP fallback's.
		kinds := map[string]int{}
		for _, ti := range w.LastPlan().Tasks() {
			kinds[ti.Kind]++
		}
		if kinds[KindAG] == 0 || kinds[KindRS] == 0 || kinds[KindA2A] != 0 {
			t.Fatalf("%s: recovered backward plan kinds = %v, want AllGather and ReduceScatter and no AlltoAll at g′ = R′", tc.strat, kinds)
		}
	}
}

// TestDenseRankDownIsPermanent: a dense (SoftMoE) plan spreads every token
// over every expert and has no per-token fallback, so under EP, ESP and
// Hybrid g = 2 alike a rank lost mid-step fails the step with an error that
// wraps the permanent fault and names the rank, as does the next step while
// the rank stays down; the world reports it down, and RecoverWorlds from a
// snapshot then steps bit-identically to a fresh stack restored from it at
// the surviving rank count.
func TestDenseRankDownIsPermanent(t *testing.T) {
	const layers = 2
	x := tensor.RandN(xrand.New(213), 1, 96, 32)
	dy := tensor.RandN(xrand.New(214), 1, 96, 32)
	cfg := StepConfig{LR: 0.05, Slices: 3}
	for _, tc := range []struct {
		strat    Strategy
		g, wantG int // configured, and after recovery to R′ = 2
	}{{StrategyEP, 0, 0}, {StrategyESP, 0, 0}, {StrategyHybrid, 2, 2}} {
		ws := routingStack(t, layers, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: tc.strat, GroupSize: tc.g}, true)
		if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
			t.Fatal(err)
		}
		snap := SnapshotWorlds(ws)
		ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 13, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
		for _, when := range []string{"at the loss", "with the rank still down"} {
			_, err := StepWorlds(ws, x, dy, cfg)
			if rank, ok := fault.PermanentRank(err); !ok || rank != 1 || !fault.IsPermanent(err) || !strings.Contains(err.Error(), "dense") {
				t.Fatalf("%s %s: step error %v, want the dense plan's permanent fault on rank 1", tc.strat, when, err)
			}
			if h := ws[0].Health(); h[1] || !h[0] {
				t.Fatalf("%s %s: health %v, want rank 1 down", tc.strat, when, h)
			}
		}
		if _, err := RecoverWorlds(ws, snap, RecoveryPolicy{}); err != nil {
			t.Fatal(err)
		}
		if w := ws[0]; w.Ranks() != 2 || w.Strategy() != tc.strat || w.GroupSize() != tc.wantG {
			t.Fatalf("recovered to R=%d %s g=%d, want R=2 %s g=%d", w.Ranks(), w.Strategy(), w.GroupSize(), tc.strat, tc.wantG)
		}
		fresh := routingStack(t, layers, WorldConfig{Ranks: 2, PipelineDegree: 2, Strategy: tc.strat, GroupSize: tc.wantG}, true)
		if err := RestoreWorlds(fresh, snap); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			got, err := StepWorlds(ws, x, dy, cfg)
			if err != nil {
				t.Fatalf("%s recovered step %d: %v", tc.strat, s, err)
			}
			want, err := StepWorlds(fresh, x, dy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameAsTwin(t, fmt.Sprintf("%s recovered step %d", tc.strat, s), got, want)
		}
	}
}

// TestWorldRecoverMatchesResetHealth is the residue audit: elastic
// recovery and a manual ResetHealth must leave the identical health
// surface — down cleared, no degraded report, no aborted plan or trace
// lingering from the failed pass.
func TestWorldRecoverMatchesResetHealth(t *testing.T) {
	x := tensor.RandN(xrand.New(211), 1, 96, 32)
	dy := tensor.RandN(xrand.New(212), 1, 96, 32)
	surface := func(w *World) [4]bool {
		healthy := true
		for _, ok := range w.Health() {
			healthy = healthy && ok
		}
		return [4]bool{healthy, w.LastDegraded() == nil, w.LastPlan() == nil, w.LastTrace() == nil}
	}
	degrade := func() *World {
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
		return w
	}

	manual := degrade()
	snap := SnapshotWorlds([]*World{manual})
	manual.SetFaultPlan(nil)
	manual.ResetHealth()

	recovered := degrade()
	if _, err := RecoverWorlds([]*World{recovered}, snap, RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}

	want := [4]bool{true, true, true, true}
	if got := surface(manual); got != want {
		t.Fatalf("ResetHealth leaves residue: healthy/degraded-nil/plan-nil/trace-nil = %v", got)
	}
	if got := surface(recovered); got != want {
		t.Fatalf("Recover leaves residue: healthy/degraded-nil/plan-nil/trace-nil = %v", got)
	}
}

// TestWorldRecoverGuards: recovery demands an actual failure, a matching
// snapshot, and a loadable checkpoint — and a corrupted checkpoint file
// surfaces the typed ckpt error instead of garbage state.
func TestWorldRecoverGuards(t *testing.T) {
	x := tensor.RandN(xrand.New(213), 1, 96, 32)
	dy := tensor.RandN(xrand.New(214), 1, 96, 32)
	ws := stepStack(t, 1, 4, 2, false)
	snap := SnapshotWorlds(ws)

	// No rank is down: recovery refuses.
	if _, err := RecoverWorlds(ws, snap, RecoveryPolicy{}); err == nil {
		t.Fatal("recovery without a failure must error")
	}

	// Down a rank, then hand recovery a stack-shape-mismatched snapshot.
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 3, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	if _, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.05, ChunkBytes: 64 << 10, Slices: 3}); err != nil {
		t.Fatal(err)
	}
	bad := &ckpt.Snapshot{Worlds: append(append([]ckpt.WorldState{}, snap.Worlds...), snap.Worlds...)}
	if _, err := RecoverWorlds(ws, bad, RecoveryPolicy{}); err == nil {
		t.Fatal("recovery with a mismatched snapshot must error")
	}

	// A corrupted checkpoint file fails loudly with the typed error before
	// any recovery can consume it.
	mgr := tempManager(t)
	path, err := mgr.Start(snap)
	if err == nil {
		err = mgr.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.LoadLatest(); !errors.Is(err, ckpt.ErrChecksum) {
		t.Fatalf("corrupted checkpoint load = %v, want ErrChecksum", err)
	}
}

// TestWorldRecoverTelemetry: the step after a recovery carries the
// recovery tally and MTTR in its StepMetrics.
func TestWorldRecoverTelemetry(t *testing.T) {
	x := tensor.RandN(xrand.New(215), 1, 96, 32)
	dy := tensor.RandN(xrand.New(216), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP, Sink: sinkFunc(func(*telemetry.StepMetrics) {})})
	if err != nil {
		t.Fatal(err)
	}
	ws := []*World{w}
	cfg := StepConfig{LR: 0.05, ChunkBytes: 64 << 10, Slices: 3}
	snap := SnapshotWorlds(ws)
	w.SetFaultPlan(fault.New(fault.Spec{Seed: 3, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverWorlds(ws, snap, RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}
	res, err := StepWorlds(ws, x, dy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || res.Metrics.Recoveries != 1 || res.Metrics.RecoveryMS <= 0 {
		t.Fatalf("post-recovery StepMetrics = %+v, want 1 recovery with measured MTTR", res.Metrics)
	}
	res2, err := StepWorlds(ws, x, dy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.Recoveries != 0 {
		t.Fatalf("recovery tally leaked into the following step: %+v", res2.Metrics)
	}
}
