package moe

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gradsync"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// TestStepResidentArenaReuse: a stack stepped repeatedly keeps its per-rank
// buffers, and reusing them changes nothing. After every one of four
// steps all replicas are bit-identical to each other and to those of a
// twin stack built from the same seeds and stepped sequentially with the
// whole AllReduce exposed — a stale or un-cleared arena would diverge from
// the twin at step two.
func TestStepResidentArenaReuse(t *testing.T) {
	const layers, ranks = 2, 4
	x := tensor.RandN(xrand.New(301), 1, 96, 32)
	dy := tensor.RandN(xrand.New(302), 1, 96, 32)
	ws := stepStack(t, layers, ranks, 2, false)
	twin := stepStack(t, layers, ranks, 2, false)
	cfg := StepConfig{LR: 0.05, Slices: 3}
	twinCfg := StepConfig{LR: 0.05, Sequential: true, Strategy: gradsync.StrategyNoOverlap}

	var arena *float64
	for s := 0; s < 4; s++ {
		got, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		want, err := StepWorlds(twin, x, dy, twinCfg)
		if err != nil {
			t.Fatalf("twin step %d: %v", s, err)
		}
		if len(got.RankParams) != ranks {
			t.Fatalf("step %d: %d replicas, want %d", s, len(got.RankParams), ranks)
		}
		for r := range got.RankParams {
			if len(got.RankParams[r]) != len(want.RankParams[0]) {
				t.Fatalf("step %d rank %d: %d params, twin has %d", s, r, len(got.RankParams[r]), len(want.RankParams[0]))
			}
			for k, v := range want.RankParams[0] {
				if got.RankParams[r][k] != v {
					t.Fatalf("step %d: rank %d param %d = %v, twin %v", s, r, k, got.RankParams[r][k], v)
				}
			}
		}
		if s == 0 {
			arena = &got.RankParams[0][0]
		} else if &got.RankParams[0][0] != arena {
			t.Fatalf("step %d allocated a new rank-0 arena", s)
		}
	}
}

// freshGar solves the byte plan StepWorlds should be holding for cfg on a
// never-stepped stack of the same shapes as the one under test: forward
// through the stack for the live padded capacities, the §5 volumes from
// them, and gradsync's own solve.
func freshGar(t *testing.T, fresh []*World, x *tensor.Tensor, cfg StepConfig) *core.GarPlan {
	t.Helper()
	cfg = cfg.withDefaults()
	specs := make([]gradsync.LayerSpec, len(fresh))
	cur := x
	for i, w := range fresh {
		y, cache, err := w.Forward(cur, false)
		if err != nil {
			t.Fatal(err)
		}
		total, dense := w.GradElems()
		specs[i] = gradsync.LayerSpec{Elems: total, DenseElems: dense, V: stepVolumes(w, cache.tpad)}
		cur = y
	}
	s, err := gradsync.New(gradsync.Config{
		Strategy: cfg.Strategy, Models: cfg.Models, RMax: cfg.RMax, ChunkBytes: cfg.ChunkBytes,
		Slices: cfg.Slices, ElemBytes: gradElemBytes, GPUsPerNode: fresh[0].cfg.GPUsPerNode,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	return s.Report().Gar
}

// TestStepPlanReuseAndInvalidation: the §5 plan is solved once and then
// reused for as long as its inputs hold, and every input that can change
// it — batch capacity, each StepConfig knob the partitioner reads, the
// rank count through a recovery — re-solves it. Reuse is pointer identity
// of Report.Gar; a re-solve is a different pointer whose contents equal a
// solve from scratch.
func TestStepPlanReuseAndInvalidation(t *testing.T) {
	const layers, ranks = 2, 4
	x := tensor.RandN(xrand.New(311), 1, 96, 32)
	dy := tensor.RandN(xrand.New(312), 1, 96, 32)
	xs := tensor.RandN(xrand.New(313), 1, 64, 32)
	dys := tensor.RandN(xrand.New(314), 1, 64, 32)
	// Fourteen steps on one batch: keep the output gradient small, or the
	// parameters reach NaN and no replica equals any other.
	tensor.ScaleInPlace(dy, 1e-3)
	tensor.ScaleInPlace(dys, 1e-3)
	mgr := &ckpt.Manager{Dir: t.TempDir()}
	ws := stepStack(t, layers, ranks, 2, false)

	cfg := StepConfig{LR: 0.05, Checkpoint: mgr}
	var held *core.GarPlan
	// step steps the stack under cfg and checks the plan it reports:
	// resolved says whether it must be a new solve or the one held.
	step := func(what string, x, dy *tensor.Tensor, resolved bool) *StepResult {
		t.Helper()
		res, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := res.Report.Gar; resolved == (got == held) {
			t.Fatalf("%s: plan re-solved = %v, want %v", what, got != held, resolved)
		}
		held = res.Report.Gar
		fresh := stepStack(t, layers, ws[0].Ranks(), 2, false)
		if want := freshGar(t, fresh, x, cfg); !reflect.DeepEqual(held, want) {
			t.Fatalf("%s: plan %+v, fresh solve %+v", what, held, want)
		}
		return res
	}

	step("first step", x, dy, true)
	if held.Overlapped() <= 0 {
		t.Fatalf("adaptive plan hides nothing, the reuse checks would be vacuous: %+v", held)
	}
	step("same inputs", x, dy, false)
	step("same inputs again", x, dy, false)

	step("fewer tokens (another padded capacity)", xs, dys, true)
	step("fewer tokens again", xs, dys, false)
	step("back to the first batch", x, dy, true)

	cfg.Slices = 7
	step("Slices", x, dy, true)
	cfg.Strategy = gradsync.StrategyFixedChunk
	cfg.ChunkBytes = 64 << 10
	step("Strategy", x, dy, true)
	cfg.Models = core.ModelsFromCluster(topology.TestbedB())
	step("Models", x, dy, true)
	step("Models again", x, dy, false)
	cfg.Strategy = gradsync.StrategyFSMoE
	step("back to adaptive", x, dy, true)

	// Lose rank 1 for good, recover onto two ranks: other volumes, and
	// arenas for two ranks.
	cfg.Checkpoint = nil
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 7, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	res, err := StepWorlds(ws, x, dy, cfg)
	if err != nil || len(res.Degraded) == 0 {
		t.Fatalf("degraded step: err %v, %d degraded passes", err, len(res.Degraded))
	}
	snap, err := mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverWorlds(ws, snap, RecoveryPolicy{Mode: RecoverShrink}); err != nil {
		t.Fatal(err)
	}
	res = step("recovered 4→2", x, dy, true)
	if len(res.RankParams) != 2 {
		t.Fatalf("recovered step has %d replicas, want 2", len(res.RankParams))
	}
	for k, v := range res.RankParams[0] {
		if res.RankParams[1][k] != v {
			t.Fatalf("recovered step: rank 1 param %d diverges", k)
		}
	}
	step("recovered again", x, dy, false)
}

// TestStepAllocationBound pins the resident state from both sides. On a
// parameter-heavy stack a warm step allocates less than one copy of the
// parameters: the per-step gradient and replica buffers that the resident
// arenas replace were 2·R copies, so a reintroduced per-step make of either
// fails here. On a token-heavy stack a warm step allocates less than twelve
// copies of the batch per layer: what Order and the gate still allocate
// (Scatter, Gather and their adjoints, Y and DX) is about eight, and the
// wire buffers, rank blocks and padded buffers that the workspace replaces
// were about forty more. The collector is off for the window, as in the
// repository benchmark, so the tensor free-lists stay warm and the figure
// repeats.
func TestStepAllocationBound(t *testing.T) {
	SetVerifyPlans(false) // Verify's graph is test-only allocation
	defer SetVerifyPlans(true)
	const layers, ranks = 2, 4
	for _, tc := range []struct {
		name         string
		m, h, n, deg int
		bound        func(params int) int // bytes
	}{
		{"parameter-bound", 64, 128, 16, 1, func(params int) int { return 8 * params }},
		{"token-bound", 256, 16, 192, 4, func(int) int { return 12 * layers * 192 * 256 * 8 }},
	} {
		ws := make([]*World, layers)
		params := 0
		for i := range ws {
			w, err := NewWorld(benchWorldLayer(t, tc.m, tc.h, 8), WorldConfig{Ranks: ranks, ChunksFwd: tc.deg})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			ws[i] = w
			total, _ := w.GradElems()
			params += total
		}
		x := tensor.RandN(xrand.New(321), 1, tc.n, tc.m)
		dy := tensor.RandN(xrand.New(322), 1, tc.n, tc.m)
		cfg := StepConfig{LR: 0.01}

		runtime.GC()
		prev := debug.SetGCPercent(-1)
		var perStep uint64
		for s := 0; s < 4; s++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			perStep = m1.TotalAlloc - m0.TotalAlloc // the last, after two warm-ups and one more
		}
		debug.SetGCPercent(prev)
		bound := uint64(tc.bound(params))
		t.Logf("%s: a warm step allocated %d bytes, bound %d", tc.name, perStep, bound)
		if perStep >= bound {
			t.Fatalf("%s: a warm step allocated %d bytes, want under %d (%d parameters, %d tokens of width %d)",
				tc.name, perStep, bound, params, tc.n, tc.m)
		}
	}
}
