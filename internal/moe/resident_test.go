package moe

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

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
	mgr := tempManager(t)
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
// parameters — the per-step gradient and replica buffers that the resident
// arenas replace were 2·R copies — and makes no single allocation as large
// as one expert's weight matrix: a reintroduced per-step make, or a weight
// gradient that goes through a temporary again, fails here. On a
// token-heavy stack a warm step allocates the output and the input gradient
// it returns, two copies of the batch, plus 128 KiB per layer (measured: 89):
// about 50 KiB of routing metadata (logits, the plan's slot tables and
// reverse index, the slot-weight gradient), at r = 4 about 35 KiB of tasks,
// trace intervals and stage closures for the two plans, and about 5 KiB for
// beginning the layer's 16 expert passes (a pass value, its block views and
// the headers over its scratch) — the stage methods themselves take row
// integers and allocate nothing. Everything Order and the gates produce lives
// in the workspace; a batch-sized allocation per layer does not fit. The
// collector is off for the window, as in the repository benchmark, so the
// tensor free-lists stay warm and the figure repeats. Under the race detector
// sync.Pool drops buffers at random, so the token stack re-allocates a few
// pooled stage temporaries (1.02 MB measured against 0.97) and its per-layer
// allowance is 256 KiB there (stepLayerSlack) — still less than one
// batch-sized allocation per layer; the parameter stack's bounds are the same
// in both modes.
func TestStepAllocationBound(t *testing.T) {
	SetVerifyPlans(false) // Verify's graph is test-only allocation
	defer SetVerifyPlans(true)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // every allocation is sampled: sites() below is exact
	const layers, ranks = 2, 4
	for _, tc := range []struct {
		name         string
		m, h, n, deg int
		bound        func(params int) int // bytes
	}{
		{"parameter-bound", 64, 128, 16, 1, func(params int) int { return 8 * params }},
		{"token-bound", 256, 16, 192, 4, func(int) int { return 2*192*256*8 + layers*stepLayerSlack }},
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
		// Both snapshots of the allocation profile go into buffers made
		// before the window, so reading it adds nothing to it.
		before, after := make([]runtime.MemProfileRecord, 1<<14), make([]runtime.MemProfileRecord, 1<<14)
		for s := 0; s < 5; s++ {
			if s == 4 { // one more step, bracketed by profile reads, which flush the free-lists
				before = allocSites(before)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			if s == 3 {
				perStep = m1.TotalAlloc - m0.TotalAlloc // after two warm-ups and one more
			}
		}
		after = allocSites(after)
		debug.SetGCPercent(prev)
		bound := uint64(tc.bound(params))
		t.Logf("%s: a warm step allocated %d bytes, bound %d", tc.name, perStep, bound)
		if perStep >= bound {
			t.Fatalf("%s: a warm step allocated %d bytes, want under %d (%d parameters, %d tokens of width %d)",
				tc.name, perStep, bound, params, tc.n, tc.m)
		}
		// No allocation of the profiled step is as large as a weight matrix.
		// A profile record is one (call stack, size) pair.
		type site struct {
			stack [32]uintptr
			size  int64
		}
		weight := int64(tc.m * tc.h * 8)
		was := map[site]int64{}
		for _, rec := range before {
			if rec.AllocObjects > 0 {
				was[site{rec.Stack0, rec.AllocBytes / rec.AllocObjects}] = rec.AllocObjects
			}
		}
		for _, rec := range after {
			if rec.AllocObjects == 0 || tc.name != "parameter-bound" {
				continue
			}
			size := rec.AllocBytes / rec.AllocObjects
			if n := rec.AllocObjects - was[site{rec.Stack0, size}]; n > 0 && size >= weight {
				frames := runtime.CallersFrames(rec.Stack())
				var where []string
				for f, more := frames.Next(); more && len(where) < 6; f, more = frames.Next() {
					where = append(where, f.Function)
				}
				t.Fatalf("%s: a warm step made %d allocations of %d bytes (a weight matrix is %d) at %v", tc.name, n, size, weight, where)
			}
		}
	}
}

// allocSites reads the allocation profile, by call stack, into buf: as of
// now — the collector publishes it, two cycles behind.
func allocSites(buf []runtime.MemProfileRecord) []runtime.MemProfileRecord {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	n, ok := runtime.MemProfile(buf, true)
	if !ok {
		panic("allocation profile outgrew its buffer")
	}
	return buf[:n]
}

// TestStepRankDownAfterHealthyStep: the arenas hold last step's replicas
// when a step starts, so an expert span nobody writes must be cleared, not
// left. One healthy step, then rank 1 of layer 0 goes down for good, then
// two more steps on the degraded path: the dead experts' parameters stay
// bit-equal to their pre-fault values on every replica and in the live
// layer, and everything else equals a twin that meets the same fault while
// stepping sequentially with the AllReduce exposed.
func TestStepRankDownAfterHealthyStep(t *testing.T) {
	const layers, ranks, down = 2, 4, 1
	x := tensor.RandN(xrand.New(331), 1, 96, 32)
	dy := tensor.RandN(xrand.New(332), 1, 96, 32)
	ws := stepStack(t, layers, ranks, 2, false)
	twin := stepStack(t, layers, ranks, 2, false)
	cfg := StepConfig{LR: 0.05, Slices: 3}
	twinCfg := StepConfig{LR: 0.05, Sequential: true, Strategy: gradsync.StrategyNoOverlap}
	step := func(label string) *StepResult {
		t.Helper()
		got, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := StepWorlds(twin, x, dy, twinCfg)
		if err != nil {
			t.Fatalf("%s twin: %v", label, err)
		}
		sameReplicas(t, label, got, want)
		return got
	}
	if res := step("healthy step"); len(res.Degraded) != 0 {
		t.Fatal("the first step must run at full strength")
	}

	w0 := ws[0]
	lo, hi := w0.gradOff[down*w0.egrp], w0.gradOff[(down+1)*w0.egrp]
	var frozen []uint64
	for _, ex := range w0.layer.cfg.Experts[down*w0.egrp : (down+1)*w0.egrp] {
		for _, p := range ex.Params() {
			for _, v := range p.W.Data() {
				frozen = append(frozen, math.Float64bits(v))
			}
		}
	}
	for _, s := range [][]*World{ws, twin} {
		s[0].SetFaultPlan(fault.New(fault.Spec{Seed: 7, Down: &fault.Down{Rank: down, Kind: KindExpert}}))
	}
	for s := 0; s < 2; s++ {
		res := step(fmt.Sprintf("degraded step %d", s))
		if len(res.Degraded) == 0 {
			t.Fatalf("degraded step %d ran at full strength", s)
		}
		for r, replica := range res.RankParams {
			for k, want := range frozen {
				if got := math.Float64bits(replica[lo+k]); got != want {
					t.Fatalf("degraded step %d: rank %d holds dead-expert parameter %d = %x, pre-fault %x", s, r, k, got, want)
				}
			}
		}
		k := 0
		for _, ex := range w0.layer.cfg.Experts[down*w0.egrp : (down+1)*w0.egrp] {
			for _, p := range ex.Params() {
				for _, v := range p.W.Data() {
					if math.Float64bits(v) != frozen[k] {
						t.Fatalf("degraded step %d: live dead-expert parameter %d moved", s, k)
					}
					k++
				}
			}
		}
		if k != hi-lo {
			t.Fatalf("dead shard spans %d elements, walked %d", hi-lo, k)
		}
	}
}

// TestStepFailedBackwardThenRestore pins what StepWorlds documents about a
// step that returns an error: the SGD update rides the ring, so the layers
// whose slices already ran are stepped and the others are not — and a
// restore from the last snapshot is the way back. Layer 0's backward plan
// fails on its first AllReduce slice, retries exhausted, after layer 1's
// plan has reduced and stepped layer 2. The stack restored from the
// pre-failure snapshot then steps bit-identically to a fresh stack restored
// from the same snapshot.
func TestStepFailedBackwardThenRestore(t *testing.T) {
	const layers, ranks = 3, 4
	x := tensor.RandN(xrand.New(341), 1, 96, 32)
	dy := tensor.RandN(xrand.New(342), 1, 96, 32)
	cfg := StepConfig{LR: 0.05, Slices: 3}
	ws := stepStack(t, layers, ranks, 2, false)
	if _, err := StepWorlds(ws, x, dy, cfg); err != nil {
		t.Fatal(err)
	}
	snap := SnapshotWorlds(ws)
	flat := func(w *World) []float64 {
		var out []float64
		for _, p := range w.layer.Params() {
			out = append(out, p.W.Data()...)
		}
		return out
	}
	before := [][]float64{flat(ws[0]), flat(ws[1]), flat(ws[2])}

	ws[0].SetFaultPlan(fault.New(fault.Spec{KindProb: map[string]float64{gradsync.KindAllReduce: 1}}))
	if _, err := StepWorlds(ws, x, dy, cfg); err == nil || !fault.IsTransient(err) {
		t.Fatalf("layer 0's backward must fail on its AllReduce slices, got %v", err)
	}
	ws[0].SetFaultPlan(nil)
	if slices.Equal(flat(ws[2]), before[2]) {
		t.Fatal("layer 2's slices ran inside layer 1's plan: its parameters must already be stepped")
	}
	if !slices.Equal(flat(ws[0]), before[0]) {
		t.Fatal("layer 0's gradients never reached a ring: its parameters must be untouched")
	}

	if err := RestoreWorlds(ws, snap); err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if !slices.Equal(flat(w), before[i]) {
			t.Fatalf("layer %d: restore did not bring back the snapshot's parameters", i)
		}
	}
	fresh := stepStack(t, layers, ranks, 2, false)
	if err := RestoreWorlds(fresh, snap); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		got, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := StepWorlds(fresh, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameReplicas(t, fmt.Sprintf("step %d after the restore", s), got, want)
	}
}

// TestStepGradsBackwardRankDown: a rank lost while a step's backward plan
// runs. Finish tasks of the aborted plan may already have written arena
// spans — the dead rank's included — so the recovery must forget them: the
// survivors' spans are rewritten, the dead experts' read zero, and the
// per-rank partials equal those of the same degraded pass driven by hand
// through Param.G. The arenas start out as NaN, standing in for stale
// replicas.
func TestStepGradsBackwardRankDown(t *testing.T) {
	x := tensor.RandN(xrand.New(341), 1, 96, 32)
	dy := tensor.RandN(xrand.New(342), 1, 96, 32)
	run := func(stepMode bool) [][]float64 {
		w := stepStack(t, 1, 4, 2, false)[0]
		st := residentFor([]*World{w})
		for _, a := range st.arena {
			for k := range a {
				a[k] = math.NaN()
			}
		}
		w.layer.ZeroGrad()
		_, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaultPlan(fault.New(fault.Spec{Seed: 4, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
		var written []bool
		if stepMode {
			w.grads, written = &st.grads[0], st.grads[0].written
		}
		_, err = w.Backward(cache, dy)
		w.grads = nil
		if err != nil {
			t.Fatal(err)
		}
		if deg := w.LastDegraded(); deg == nil || deg.Phase != "backward" {
			t.Fatalf("DegradedResult = %+v, want a backward-phase loss", deg)
		}
		w.rankGrads(st.views[0], written)
		return st.views[0]
	}
	want, got := run(false), run(true)
	for r := range want {
		for k, v := range want[r] {
			if math.Float64bits(got[r][k]) != math.Float64bits(v) {
				t.Fatalf("rank %d partial %d = %v, through Param.G %v", r, k, got[r][k], v)
			}
		}
	}
}
