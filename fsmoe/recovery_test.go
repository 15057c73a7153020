package fsmoe

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
)

// TestRecoveryEndToEnd drives the whole public fault-tolerance surface:
// periodic checkpoints through StepConfig, a permanent rank kill under
// the seeded injector, elastic recovery from the latest snapshot, and
// bit-identical continued training versus a reference run restarted from
// the same checkpoint on the surviving topology.
func TestRecoveryEndToEnd(t *testing.T) {
	x := RandTensor(121, 96, 32)
	dy := RandTensor(122, 96, 32)
	mgr := tempCheckpoints(t, 3)
	cfg := StepConfig{LR: 0.02, ChunkBytes: 64 << 10}

	ws := syncTestStack(t, 2, 4)
	ckptCfg := cfg
	ckptCfg.Checkpoint = mgr
	for s := 0; s < 2; s++ {
		if _, err := StepStack(ws, x, dy, ckptCfg); err != nil {
			t.Fatal(err)
		}
	}

	// Kill rank 1; the step survives degraded, then the stack recovers.
	ws[0].SetFaultPlan(NewFaultPlan(FaultSpec{Seed: 7, Down: &FaultDown{Rank: 1, Kind: KindExperts}}))
	res, err := StepStack(ws, x, dy, cfg)
	if err != nil {
		t.Fatalf("degraded step must complete, got %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("rank-down never fired")
	}
	snap, err := mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Recover(ws, snap, RecoveryPolicy{Mode: RecoverShrink})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.NewRanks != 2 || rep.RecoveryMS <= 0 || len(rep.MovedExperts) == 0 {
			t.Fatalf("recovery report = %+v, want 4→2 shrink with moved experts and measured MTTR", rep)
		}
	}
	if lr := ws[0].LastRecovery(); lr == nil || lr.DownRank != 1 {
		t.Fatalf("LastRecovery = %+v, want the rank-1 rebuild", lr)
	}

	// Reference: a fresh 2-rank stack restored from the same checkpoint.
	ref := syncTestStack(t, 2, 2)
	if err := Restore(ref, snap); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		got, err := StepStack(ws, x, dy, cfg)
		if err != nil {
			t.Fatalf("post-recovery step %d: %v", s, err)
		}
		want, err := StepStack(ref, x, dy, cfg)
		if err != nil {
			t.Fatalf("reference step %d: %v", s, err)
		}
		for r := range want.RankParams {
			for k := range want.RankParams[r] {
				if got.RankParams[r][k] != want.RankParams[r][k] {
					t.Fatalf("step %d: rank %d param %d diverges from reference restart", s, r, k)
				}
			}
		}
	}
}

// TestRecoveryCorruptCheckpoint: a damaged snapshot file surfaces the
// typed corruption error through the facade.
func TestRecoveryCorruptCheckpoint(t *testing.T) {
	ws := syncTestStack(t, 1, 4)
	mgr := tempCheckpoints(t, 0)
	path, err := mgr.Save(Checkpoint(ws))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.LoadLatest(); !errors.Is(err, ErrCheckpointChecksum) {
		t.Fatalf("corrupt checkpoint load = %v, want ErrCheckpointChecksum", err)
	}
	empty := &CheckpointManager{Dir: t.TempDir()}
	if _, err := empty.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir Latest = %v, want ErrNoCheckpoint", err)
	}
}

// TestRecoveryRestoreAllOrNothing: a stack snapshot that one layer does not
// match is refused before any layer is written — layer 0 keeps its stepped
// state although its own part of the snapshot matched.
func TestRecoveryRestoreAllOrNothing(t *testing.T) {
	ws := syncTestStack(t, 2, 4)
	bad := Checkpoint(ws)
	bad.Worlds[1].Experts = bad.Worlds[1].Experts[:len(bad.Worlds[1].Experts)-1]
	if _, err := StepStack(ws, RandTensor(123, 96, 32), RandTensor(124, 96, 32), StepConfig{LR: 0.02, ChunkBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	before := Checkpoint(ws)
	if err := Restore(ws, bad); err == nil {
		t.Fatal("restore of a snapshot layer 1 does not match must fail")
	}
	if !reflect.DeepEqual(Checkpoint(ws), before) {
		t.Fatal("a refused restore wrote into the stack")
	}
}

// TestRecoveryShrinkOneRankCount: a shrink picks one rank count for the whole
// stack — the largest below R that divides every layer's expert count, 2 for
// E = 8 and E = 12 at R = 4 — and the stack steps on it. A snapshot one layer
// does not match is refused before any world is rolled back or re-placed.
func TestRecoveryShrinkOneRankCount(t *testing.T) {
	x := RandTensor(125, 96, 32)
	dy := RandTensor(126, 96, 32)
	cfg := StepConfig{LR: 0.02, ChunkBytes: 64 << 10}
	var ws []*World
	for i, e := range []int{8, 12} {
		l, err := NewLayer(LayerConfig{M: 32, H: 48, Experts: e, TopK: 2, CapacityFactor: 1.25, Seed: uint64(31 + i)})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(l, WorldConfig{Ranks: 4, PipelineDegree: 2})
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	snap, bad := Checkpoint(ws), Checkpoint(ws)
	bad.Worlds[1].Experts = bad.Worlds[1].Experts[:len(bad.Worlds[1].Experts)-1]

	ws[0].SetFaultPlan(NewFaultPlan(FaultSpec{Seed: 7, Down: &FaultDown{Rank: 1, Kind: KindExperts}}))
	res, err := StepStack(ws, x, dy, cfg)
	if err != nil {
		t.Fatalf("degraded step must complete, got %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("rank-down never fired")
	}

	before := Checkpoint(ws)
	if _, err := Recover(ws, bad, RecoveryPolicy{Mode: RecoverShrink}); err == nil {
		t.Fatal("recovery from a snapshot layer 1 does not match must fail")
	}
	if !reflect.DeepEqual(Checkpoint(ws), before) || ws[0].Ranks() != 4 || ws[1].Ranks() != 4 {
		t.Fatal("a refused recovery rolled back or re-placed a world")
	}

	reports, err := Recover(ws, snap, RecoveryPolicy{Mode: RecoverShrink})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep.NewRanks != 2 || ws[i].Ranks() != 2 {
			t.Fatalf("layer %d shrank to %d ranks (report %d), want the stack's one count 2", i, ws[i].Ranks(), rep.NewRanks)
		}
	}
	if _, err := StepStack(ws, x, dy, cfg); err != nil {
		t.Fatalf("step after recovery: %v", err)
	}
}

// tempCheckpoints is a checkpoint manager over a fresh temp directory that
// waits for its commit in flight before the directory is removed.
func tempCheckpoints(t *testing.T, keep int) *CheckpointManager {
	m := &CheckpointManager{Dir: t.TempDir(), Keep: keep}
	t.Cleanup(func() { _ = m.Wait() })
	return m
}

// sameSnapshot fails unless a and b encode to the same bytes: every count,
// name, shape and parameter bit equal.
func sameSnapshot(t *testing.T, what string, a, b *Snapshot) {
	t.Helper()
	ra, err := ckpt.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ckpt.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Fatalf("%s: the snapshots differ", what)
	}
}

// TestCkptCommitFailure: after one good checkpoint the next commit fails in
// the background. The step after it fails with ErrCheckpointCommit, Wait
// returns the same error, no temp file is left behind, the last good
// snapshot still loads, and the next checkpointing step commits again.
func TestCkptCommitFailure(t *testing.T) {
	x := RandTensor(127, 96, 32)
	dy := RandTensor(128, 96, 32)
	mgr := tempCheckpoints(t, 3)
	ws := syncTestStack(t, 2, 4)
	cfg := StepConfig{LR: 0.02, ChunkBytes: 64 << 10, Checkpoint: mgr}
	step := func() (*StepResult, error) { return StepStack(ws, x, dy, cfg) }

	if _, err := step(); err != nil {
		t.Fatal(err)
	}
	good := Checkpoint(ws)
	if err := mgr.Wait(); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory on step 2's final name: the commit's rename
	// fails whatever the process may do.
	block := filepath.Join(mgr.Dir, fmt.Sprintf("step-%012d%s", 2, ckpt.Ext))
	if err := os.MkdirAll(filepath.Join(block, "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := step()
	if err != nil || res.CheckpointPath != block {
		t.Fatalf("step 2 = (%v, %v), want its snapshot accepted for %s", res, err, block)
	}
	_, stepErr := step()
	if !errors.Is(stepErr, ErrCheckpointCommit) {
		t.Fatalf("step after the failed commit = %v, want ErrCheckpointCommit", stepErr)
	}
	if werr := mgr.Wait(); werr == nil || !errors.Is(stepErr, werr) {
		t.Fatalf("Wait = %v, want the error the step returned: %v", werr, stepErr)
	}
	entries, err := os.ReadDir(mgr.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind by the failed commit", e.Name())
		}
	}
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	got, err := mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "the last good checkpoint", got, good)

	res, err = step()
	if err != nil || res.CheckpointPath == "" {
		t.Fatalf("the step after a reported failure = (%v, %v), want a fresh commit", res, err)
	}
	if err := mgr.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestCkptDrainOnClose: a stack that checkpoints every step and is then
// closed leaves no commit running: the goroutine count is back to its
// baseline, the directory already holds exactly the last Keep snapshots,
// complete, and the latest is bit for bit the stack after its last step.
func TestCkptDrainOnClose(t *testing.T) {
	x := RandTensor(129, 96, 32)
	dy := RandTensor(130, 96, 32)
	// One stepped and closed stack first, so whatever goroutines stepping
	// starts for good are in the baseline.
	warm := syncTestStack(t, 2, 4)
	if _, err := StepStack(warm, x, dy, StepConfig{LR: 0.02}); err != nil {
		t.Fatal(err)
	}
	for _, w := range warm {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()

	const keep = 2
	mgr := tempCheckpoints(t, keep)
	ws := syncTestStack(t, 2, 4)
	cfg := StepConfig{LR: 0.02, ChunkBytes: 64 << 10, Checkpoint: mgr, CheckpointEvery: 1}
	var paths []string
	for s := 0; s < 4; s++ {
		res, err := StepStack(ws, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, res.CheckpointPath)
	}
	want := Checkpoint(ws)
	for _, w := range ws {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Read the directory without the manager, whose reads drain first.
	entries, err := os.ReadDir(mgr.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	var wantNames []string
	for _, p := range paths[len(paths)-keep:] {
		wantNames = append(wantNames, filepath.Base(p))
		if _, err := ckpt.Load(p); err != nil {
			t.Fatalf("after Close: %v", err)
		}
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("after Close the directory holds %v, want %v", names, wantNames)
	}
	got, err := mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "the latest checkpoint", got, want)

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before the stack, %d after Close", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
