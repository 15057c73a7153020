package moe

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/gradsync"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// These tests run, like the rest of the package, with workspace poisoning
// on (main_test.go): every token-path buffer a pass takes comes back full
// of NaN, so anything that still relied on fresh zeroed memory — or that
// read a stale row of the previous step — shows up as a diverging replica.

// strategyStack builds a stack of identically seeded layers under one
// strategy at R=4; every layer pads (T % 4 ≠ 0).
func strategyStack(t *testing.T, layers int, cfg WorldConfig) []*World {
	t.Helper()
	ws := make([]*World, layers)
	for i := range ws {
		w, err := NewWorld(strategyLayer(t, cfg.Strategy, false), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

func sameReplicas(t *testing.T, label string, got, want *StepResult) {
	t.Helper()
	if got.Y.MaxAbsDiff(want.Y) != 0 || got.DX.MaxAbsDiff(want.DX) != 0 {
		t.Fatalf("%s: output or input gradient diverges from the twin", label)
	}
	for r := range got.RankParams {
		if len(got.RankParams[r]) != len(want.RankParams[0]) {
			t.Fatalf("%s: rank %d has %d params, twin %d", label, r, len(got.RankParams[r]), len(want.RankParams[0]))
		}
		for k, v := range want.RankParams[0] {
			if got.RankParams[r][k] != v {
				t.Fatalf("%s: rank %d param %d = %v, twin %v", label, r, k, got.RankParams[r][k], v)
			}
		}
	}
}

// TestWorkspaceReuseBitIdentical: three steps on three different batches
// with live pad rows, per strategy. The pipelined stack reuses one
// workspace per world from the second step on; its replicas, outputs and
// input gradients stay bit-identical to a twin that steps sequentially
// with the AllReduce exposed.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	const layers = 2
	cfgs := []WorldConfig{
		{Ranks: 4, ChunksFwd: 2, Strategy: StrategyEP},
		{Ranks: 4, ChunksFwd: 2, Strategy: StrategyESP},
		{Ranks: 4, ChunksFwd: 2, Strategy: StrategyHybrid, GroupSize: 2},
		{Ranks: 4, ChunksFwd: 2, Strategy: StrategyDenseSlots},
	}
	for _, wc := range cfgs {
		ws := strategyStack(t, layers, wc)
		twin := strategyStack(t, layers, wc)
		var held []*workspace
		for s := 0; s < 3; s++ {
			x := tensor.RandN(xrand.New(uint64(400+2*s)), 1, 96, 32)
			dy := tensor.RandN(xrand.New(uint64(401+2*s)), 1, 96, 32)
			got, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.05, Slices: 3})
			if err != nil {
				t.Fatalf("%s step %d: %v", wc.Strategy, s, err)
			}
			want, err := StepWorlds(twin, x, dy, StepConfig{LR: 0.05, Sequential: true, Strategy: gradsync.StrategyNoOverlap})
			if err != nil {
				t.Fatalf("%s twin step %d: %v", wc.Strategy, s, err)
			}
			sameReplicas(t, fmt.Sprintf("%s step %d", wc.Strategy, s), got, want)
			for i, w := range ws {
				if w.ws == nil || w.ws.shape.capacity%wc.Ranks == 0 {
					t.Fatalf("%s step %d layer %d: idle workspace %+v, want one with live pad rows", wc.Strategy, s, i, w.ws)
				}
				if s == 0 {
					held = append(held, w.ws)
				} else if w.ws != held[i] {
					t.Fatalf("%s step %d layer %d: a warm step cut a new workspace", wc.Strategy, s, i)
				}
			}
		}
	}
}

// TestWorkspaceOutstandingCache: a Forward while an earlier cache is still
// outstanding must not touch what that cache points at. Forward(x1),
// Forward(x2), then Backward on each cache equals two independent
// Forward→Backward passes.
func TestWorkspaceOutstandingCache(t *testing.T) {
	x1 := tensor.RandN(xrand.New(421), 1, 96, 32)
	x2 := tensor.RandN(xrand.New(422), 1, 96, 32)
	dy := tensor.RandN(xrand.New(423), 1, 96, 32)
	for _, wc := range []WorldConfig{
		{Ranks: 4, ChunksFwd: 2, Strategy: StrategyEP},
		{Ranks: 4, ChunksFwd: 2, Strategy: StrategyESP},
	} {
		layer := strategyLayer(t, wc.Strategy, false)
		want1 := runWorld(t, layer, wc, x1, dy, false)
		want2 := runWorld(t, layer, wc, x2, dy, false)

		w, err := NewWorld(layer, wc)
		if err != nil {
			t.Fatal(err)
		}
		y1, c1, err := w.Forward(x1, false)
		if err != nil {
			t.Fatal(err)
		}
		y2, c2, err := w.Forward(x2, false)
		if err != nil {
			t.Fatal(err)
		}
		if c1.ws == c2.ws {
			t.Fatalf("%s: two live caches share a workspace", wc.Strategy)
		}
		for i, c := range []*WorldCache{c1, c2} {
			layer.ZeroGrad()
			dx, err := w.Backward(c, dy)
			if err != nil {
				t.Fatal(err)
			}
			got := worldSnapshot{y: []*tensor.Tensor{y1, y2}[i], dx: dx, grads: snapGrads(layer)}
			compareSnapshots(t, fmt.Sprintf("%s cache %d", wc.Strategy, i+1), []worldSnapshot{want1, want2}[i], got)
			if c.ws != nil || w.ws == nil {
				t.Fatalf("%s cache %d: Backward did not hand its workspace back", wc.Strategy, i+1)
			}
		}
	}
}

// TestWorkspaceLifetime: what re-cuts or drops the workspace. Another batch
// capacity and other pipeline degrees start a new one; Close drops it; a
// RecoverShrink 4→2 drops it, and the recovered stack then steps — on
// workspaces cut for two ranks — bit-identically to a fresh R=2 stack
// restored from the same checkpoint.
func TestWorkspaceLifetime(t *testing.T) {
	const layers = 2
	x := tensor.RandN(xrand.New(431), 1, 96, 32)
	dy := tensor.RandN(xrand.New(432), 1, 96, 32)
	xs := tensor.RandN(xrand.New(433), 1, 64, 32)
	dys := tensor.RandN(xrand.New(434), 1, 64, 32)
	mgr := tempManager(t)
	cfg := StepConfig{LR: 0.05, Checkpoint: mgr}
	ws := stepStack(t, layers, 4, 2, false)
	step := func(what string, x, dy *tensor.Tensor) *StepResult {
		t.Helper()
		res, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return res
	}

	step("first", x, dy)
	first := ws[0].ws
	step("same shape", x, dy)
	if ws[0].ws != first {
		t.Fatal("a second step at the same shape re-cut the workspace")
	}
	step("fewer tokens", xs, dys)
	if ws[0].ws == first {
		t.Fatal("another batch capacity kept the old workspace")
	}
	small := ws[0].ws
	for _, w := range ws {
		w.cfg.ChunksBwd = 1
	}
	step("other backward degree", xs, dys)
	if ws[0].ws == small {
		t.Fatal("another backward degree kept the old workspace")
	}

	// Lose rank 1 for good, recover onto two ranks.
	cfg.Checkpoint = nil
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 7, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	if res := step("degraded", x, dy); len(res.Degraded) == 0 {
		t.Fatal("rank-down never fired")
	}
	snap, err := mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverWorlds(ws, snap, RecoveryPolicy{Mode: RecoverShrink}); err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if w.ws != nil {
			t.Fatalf("layer %d: recovery kept a workspace cut for four ranks", i)
		}
	}
	ref := stepStack(t, layers, 2, 2, false)
	for _, w := range ref {
		w.cfg.ChunksBwd = 1
	}
	if err := RestoreWorlds(ref, snap); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		got := step(fmt.Sprintf("recovered step %d", s), x, dy)
		want, err := StepWorlds(ref, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.RankParams) != 2 {
			t.Fatalf("recovered step %d has %d replicas, want 2", s, len(got.RankParams))
		}
		sameReplicas(t, fmt.Sprintf("recovered step %d", s), got, want)
		if ws[0].ws == nil || ws[0].ws.shape.ranks != 2 {
			t.Fatalf("recovered step %d: idle workspace %+v, want one cut for two ranks", s, ws[0].ws)
		}
	}

	if err := ws[0].Close(); err != nil {
		t.Fatal(err)
	}
	if ws[0].ws != nil {
		t.Fatal("Close kept the workspace")
	}
	if _, _, err := ws[0].Forward(x, false); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("forward after close: %v", err)
	}
}
