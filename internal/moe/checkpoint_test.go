package moe

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// checkpointStack is a two-layer stack the checkpoint-by-reference tests
// step, over hard routing.
type checkpointStack struct {
	cfg     WorldConfig
	mixtral bool // the experts are MixtralFFN
}

// checkpointStacks are EP, ESP and Hybrid g = 2 at R = 4 over GPT experts,
// and Hybrid g = 2 over Mixtral experts.
var checkpointStacks = []checkpointStack{
	{cfg: WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP}},
	{cfg: WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP}},
	{cfg: WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2}},
	{cfg: WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2}, mixtral: true},
}

func (c checkpointStack) String() string {
	if c.mixtral {
		return fmt.Sprintf("%s mixtral", c.cfg.Strategy)
	}
	return fmt.Sprint(c.cfg.Strategy)
}

// build makes a fresh stack of two identically seeded layers.
func (c checkpointStack) build(t *testing.T) []*World {
	t.Helper()
	ws := make([]*World, 2)
	for i := range ws {
		w, err := NewWorld(routingLayer(t, false, c.mixtral), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// checkCommitted fails unless the file at path holds want: Load's snapshot
// equals it, every tensor compared with SameBits, and the file is Encode's
// bytes of it.
func checkCommitted(t *testing.T, label, path string, want *ckpt.Snapshot) {
	t.Helper()
	got, err := ckpt.Load(path)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.Step != want.Step || len(got.Worlds) != len(want.Worlds) {
		t.Fatalf("%s: step %d with %d worlds, want step %d with %d", label, got.Step, len(got.Worlds), want.Step, len(want.Worlds))
	}
	for i := range want.Worlds {
		g, w := &got.Worlds[i], &want.Worlds[i]
		if g.Steps != w.Steps || !slices.Equal(g.GateRNG, w.GateRNG) || len(g.Experts) != len(w.Experts) {
			t.Fatalf("%s: world %d counters, RNG or expert count differ from the snapshot", label, i)
		}
		same := func(what string, gt, wt []ckpt.Tensor) {
			t.Helper()
			if len(gt) != len(wt) {
				t.Fatalf("%s: world %d %s has %d tensors, want %d", label, i, what, len(gt), len(wt))
			}
			for k := range wt {
				if gt[k].Name != wt[k].Name || !tensor.FromData(gt[k].Data, gt[k].Shape...).SameBits(tensor.FromData(wt[k].Data, wt[k].Shape...)) {
					t.Fatalf("%s: world %d %s tensor %d (%s) is not the step's parameters", label, i, what, k, wt[k].Name)
				}
			}
		}
		same("gate", g.Gate, w.Gate)
		for e := range w.Experts {
			same(fmt.Sprint("expert ", e), g.Experts[e], w.Experts[e])
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ckpt.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, enc) {
		t.Fatalf("%s: the file is not Encode's bytes of the step's snapshot", label)
	}
}

// TestStepCheckpointCommitsTheStep: a checkpoint commits the live
// parameters by reference while the next steps run, the first of them into
// the spare buffer. At CheckpointEvery 1, 2 and 5 under EP, ESP and Hybrid
// g = 2 (over GPT and Mixtral experts), every committed file holds its
// step's parameters — a deep SnapshotWorlds taken right after that step —
// and the stack's parameters stay bit-identical to a twin stepped without
// checkpoints.
func TestStepCheckpointCommitsTheStep(t *testing.T) {
	x := tensor.RandN(xrand.New(701), 1, 96, 32)
	dy := tensor.RandN(xrand.New(702), 1e-2, 96, 32)
	for _, c := range checkpointStacks {
		for _, every := range []int{1, 2, 5} {
			label := fmt.Sprintf("%s every %d", c, every)
			ws, twin := c.build(t), c.build(t)
			mgr := tempManager(t)
			cfg := StepConfig{LR: 0.05, Train: true, Slices: 3, Checkpoint: mgr, CheckpointEvery: every}
			plain := cfg
			plain.Checkpoint = nil
			want := map[string]*ckpt.Snapshot{}
			var pinned, held []float64 // the buffer the last commit reads, and a copy
			for s := 0; s < 11; s++ {
				res, err := StepWorlds(ws, x, dy, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if pinned != nil {
					// Whatever the commit's timing, the step after it wrote around it.
					if err := sameBits(pinned, held); err != nil || sameMemory(res.RankParams[0], pinned) {
						t.Fatalf("%s step %d wrote the buffer the last checkpoint commits (%v)", label, s, err)
					}
					pinned = nil
				}
				if res.CheckpointPath != "" {
					want[res.CheckpointPath] = SnapshotWorlds(ws)
					pinned, held = res.RankParams[0], slices.Clone(res.RankParams[0])
				}
				twinRes, err := StepWorlds(twin, x, dy, plain)
				if err != nil {
					t.Fatal(err)
				}
				sameAsTwin(t, fmt.Sprintf("%s step %d", label, s), res, twinRes)
				if err := sameBits(liveParams(ws), liveParams(twin)); err != nil {
					t.Fatalf("%s step %d: Param.W: %v", label, s, err)
				}
			}
			if err := mgr.Wait(); err != nil {
				t.Fatal(err)
			}
			if len(want) != 11/every {
				t.Fatalf("%s: %d checkpoints, want %d", label, len(want), 11/every)
			}
			for path, snap := range want {
				checkCommitted(t, label, path, snap)
			}
		}
	}
}

// TestStepCheckpointThenRestoreOrRecover: RestoreWorlds and RecoverWorlds
// called right after a checkpointing step, while its commit may still read
// the live parameters, wait for it: the file holds the step's parameters,
// and the restored or recovered stack steps on bit-identically to a twin
// that never checkpointed. Before the rollback, the step after a checkpoint
// runs with a rank down: the update of a degraded pinned step still writes
// every element of the spare buffer.
func TestStepCheckpointThenRestoreOrRecover(t *testing.T) {
	x := tensor.RandN(xrand.New(703), 1, 96, 32)
	dy := tensor.RandN(xrand.New(704), 1e-2, 96, 32)
	down := fault.Spec{Seed: 7, Down: &fault.Down{Rank: 1, Kind: KindExpert}}
	for _, c := range checkpointStacks {
		for _, recover := range []bool{false, true} {
			label := fmt.Sprintf("%s recover=%v", c, recover)
			ws, twin := c.build(t), c.build(t)
			mgr := tempManager(t)
			cfg := StepConfig{LR: 0.05, Train: true, Slices: 3}
			ckptCfg := cfg
			ckptCfg.Checkpoint = mgr
			step := func(what string, sc StepConfig) *StepResult {
				t.Helper()
				res, err := StepWorlds(ws, x, dy, sc)
				if err != nil {
					t.Fatalf("%s %s: %v", label, what, err)
				}
				twinRes, err := StepWorlds(twin, x, dy, cfg)
				if err != nil {
					t.Fatalf("%s %s (twin): %v", label, what, err)
				}
				sameAsTwin(t, label+" "+what, res, twinRes)
				return res
			}
			step("first step", ckptCfg)
			back := SnapshotWorlds(twin)
			second := step("second step", ckptCfg)
			secondWant := SnapshotWorlds(twin)
			if recover {
				ws[0].SetFaultPlan(fault.New(down))
				twin[0].SetFaultPlan(fault.New(down))
				step("degraded step", cfg)
			}
			// The step whose commit is in flight when the stack is rolled back.
			res, err := StepWorlds(ws, x, dy, ckptCfg)
			if err != nil {
				t.Fatal(err)
			}
			if recover {
				_, err = RecoverWorlds(ws, back, RecoveryPolicy{})
			} else {
				err = RestoreWorlds(ws, back)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// The commit renames its file into place last.
			if _, err := os.Stat(res.CheckpointPath); err != nil {
				t.Fatalf("%s: the rollback returned before the commit it waits for: %v", label, err)
			}
			if _, err := StepWorlds(twin, x, dy, cfg); err != nil {
				t.Fatal(err)
			}
			if err := mgr.Wait(); err != nil {
				t.Fatal(err)
			}
			checkCommitted(t, label+" second step", second.CheckpointPath, secondWant)
			checkCommitted(t, label, res.CheckpointPath, SnapshotWorlds(twin))
			if recover {
				_, err = RecoverWorlds(twin, back, RecoveryPolicy{})
			} else {
				err = RestoreWorlds(twin, back)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(liveParams(ws), liveParams(twin)); err != nil {
				t.Fatalf("%s: rolled-back Param.W: %v", label, err)
			}
			for s := 0; s < 2; s++ {
				step(fmt.Sprint("step after the rollback ", s), ckptCfg)
			}
		}
	}
}

// TestStepWithoutCheckpointMakesNoSpare: the spare parameter buffer exists
// only for the step after a checkpoint. A stack stepped without a
// Checkpoint never makes it; the step after its first checkpoint does, and
// swaps it in as the live parameters.
func TestStepWithoutCheckpointMakesNoSpare(t *testing.T) {
	x := tensor.RandN(xrand.New(705), 1, 96, 32)
	dy := tensor.RandN(xrand.New(706), 1e-2, 96, 32)
	ws := stepStack(t, 2, 4, 2, false)
	cfg := StepConfig{LR: 0.05}
	for s := 0; s < 3; s++ {
		if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := ws[0].resident
	if st.spare != nil || st.spareV != nil {
		t.Fatal("a stack stepped without a checkpoint made the spare buffer")
	}
	cfg.Checkpoint = tempManager(t)
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatal(err)
	}
	if st.spare != nil || !st.pinned {
		t.Fatal("a checkpointing step must pin the live buffer and make no spare yet")
	}
	live := st.params
	cfg.Checkpoint = nil
	res, err := StepWorlds(ws, x, dy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.pinned || !sameMemory(st.spare, live) || sameMemory(res.RankParams[0], live) {
		t.Fatal("the step after a checkpoint must step into the spare buffer and make it the live one")
	}
	if err := sameBits(liveParams(ws), st.params); err != nil {
		t.Fatalf("Param.W after the swap: %v", err)
	}
}

// TestStepCheckpointAlternatingManagers: a stack may checkpoint through a
// different manager each step. A commit the other manager started still
// reads the buffer the next step writes, so the checkpointing step waits
// for it: at CheckpointEvery 1, alternating two managers, the previous
// step's file is in place when a step returns, every file of either holds
// its step's parameters, and the stack stays bit-identical to a twin
// stepped without checkpoints.
func TestStepCheckpointAlternatingManagers(t *testing.T) {
	x := tensor.RandN(xrand.New(707), 1, 96, 32)
	dy := tensor.RandN(xrand.New(708), 1e-2, 96, 32)
	for _, c := range checkpointStacks {
		ws, twin := c.build(t), c.build(t)
		mgrs := []*ckpt.Manager{tempManager(t), tempManager(t)}
		plain := StepConfig{LR: 0.05, Train: true, Slices: 3}
		want := map[string]*ckpt.Snapshot{}
		prev := ""
		for s := 0; s < 8; s++ {
			cfg := plain
			cfg.Checkpoint = mgrs[s%2]
			res, err := StepWorlds(ws, x, dy, cfg)
			if err != nil {
				t.Fatalf("%s step %d: %v", c, s, err)
			}
			// The commit renames its file into place last.
			if _, err := os.Stat(prev); prev != "" && err != nil {
				t.Fatalf("%s step %d returned before the other manager's commit: %v", c, s, err)
			}
			prev = res.CheckpointPath
			want[prev] = SnapshotWorlds(ws)
			twinRes, err := StepWorlds(twin, x, dy, plain)
			if err != nil {
				t.Fatal(err)
			}
			sameAsTwin(t, fmt.Sprintf("%s step %d", c, s), res, twinRes)
		}
		for _, m := range mgrs {
			if err := m.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if len(want) != 8 {
			t.Fatalf("%s: %d checkpoint files, want 8", c, len(want))
		}
		for path, snap := range want {
			checkCommitted(t, c.String(), path, snap)
		}
	}
}

// TestRestoreThroughSecondWorldWaitsForCommit: the commit reads the
// parameters of the layers, not of the Worlds. A second World over a
// stepped stack's first layer restores into the same Param.W spans, so
// RestoreWorlds through it waits for the commit in flight: the file is in
// place when it returns and holds the step's parameters.
func TestRestoreThroughSecondWorldWaitsForCommit(t *testing.T) {
	x := tensor.RandN(xrand.New(709), 1, 96, 32)
	dy := tensor.RandN(xrand.New(710), 1e-2, 96, 32)
	c := checkpointStacks[0]
	ws := c.build(t)
	mgr := tempManager(t)
	back := SnapshotWorlds(ws[:1])
	res, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.05, Train: true, Checkpoint: mgr})
	if err != nil {
		t.Fatal(err)
	}
	want := SnapshotWorlds(ws)
	w2, err := NewWorld(ws[0].layer, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreWorlds([]*World{w2}, back); err != nil {
		t.Fatal(err)
	}
	// The commit renames its file into place last.
	if _, err := os.Stat(res.CheckpointPath); err != nil {
		t.Fatalf("the restore through a second World returned before the commit: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	checkCommitted(t, "second World", res.CheckpointPath, want)
}
