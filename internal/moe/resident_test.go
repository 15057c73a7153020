package moe

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gradsync"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestStepResidentArenaReuse: a stack stepped repeatedly keeps its one
// parameter and one gradient buffer, and reusing them changes nothing.
// After every one of four steps the parameter row is bit-identical to that
// of a twin stack built from the same seeds and stepped sequentially with
// the whole AllReduce exposed — a stale or un-cleared gradient would
// diverge from the twin at step two.
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
		sameAsTwin(t, fmt.Sprintf("step %d", s), got, want)
		if s == 0 {
			arena = &got.RankParams[0][0]
		} else if &got.RankParams[0][0] != arena {
			t.Fatalf("step %d allocated a new parameter buffer", s)
		}
	}
}

// TestStepOutputsStackOwned: StepResult.Y and StepResult.DX are slots of
// the stack's workspaces, so the second step returns them in the memory of
// the first; World.Forward and World.Backward outside a step still return
// tensors the caller keeps.
func TestStepOutputsStackOwned(t *testing.T) {
	x := tensor.RandN(xrand.New(303), 1, 96, 32)
	dy := tensor.RandN(xrand.New(304), 1, 96, 32)
	for _, layers := range []int{1, 2} {
		ws := stepStack(t, layers, 4, 2, false)
		var res [2]*StepResult
		for s := range res {
			r, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.05})
			if err != nil {
				t.Fatalf("L=%d step %d: %v", layers, s, err)
			}
			res[s] = r
		}
		if &res[0].Y.Data()[0] != &res[1].Y.Data()[0] || &res[0].DX.Data()[0] != &res[1].DX.Data()[0] {
			t.Fatalf("L=%d: the second step returned its output or input gradient in new memory", layers)
		}
	}

	w := stepStack(t, 1, 4, 2, false)[0]
	var ys, dxs [2]*tensor.Tensor
	for i := range ys {
		y, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		dx, err := w.Backward(cache, dy)
		if err != nil {
			t.Fatal(err)
		}
		ys[i], dxs[i] = y, dx
	}
	if overlaps(ys[0].Data(), ys[1].Data()) || overlaps(dxs[0].Data(), dxs[1].Data()) {
		t.Fatal("two World.Forward/Backward passes returned their results in shared memory")
	}
}

// TestStepRejectsAliasedOutputs: a step whose x or dy shares memory with
// the stack-owned outputs of the step before — x = Y, a reshaped view of Y,
// dy = DX — fails with ErrStepInputAliased and touches nothing: at L = 1 and
// L = 2, an unaliased copy of the same values then steps bit-identically to
// a twin that never saw the rejected calls.
func TestStepRejectsAliasedOutputs(t *testing.T) {
	const n, m = 96, 32
	x := tensor.RandN(xrand.New(305), 1, n, m)
	dy := tensor.RandN(xrand.New(306), 1, n, m)
	cfg := StepConfig{LR: 0.05, Slices: 3}
	twinCfg := StepConfig{LR: 0.05, Sequential: true, Strategy: gradsync.StrategyNoOverlap}
	for _, layers := range []int{1, 2} {
		ws := stepStack(t, layers, 4, 2, false)
		twin := stepStack(t, layers, 4, 2, false)
		got, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := StepWorlds(twin, x, dy, twinCfg)
		if err != nil {
			t.Fatal(err)
		}
		sameAsTwin(t, fmt.Sprintf("L=%d first step", layers), got, want)
		for _, bad := range []struct {
			name  string
			x, dy *tensor.Tensor
		}{
			{"x = Y", got.Y, dy},
			{"x = Y reshaped", got.Y.Reshape(1, n, m), dy.Reshape(1, n, m)},
			{"dy = DX", x, got.DX},
		} {
			if _, err := StepWorlds(ws, bad.x, bad.dy, cfg); !errors.Is(err, ErrStepInputAliased) {
				t.Fatalf("L=%d %s: err %v, want ErrStepInputAliased", layers, bad.name, err)
			}
		}
		got2, err := StepWorlds(ws, got.Y.Clone(), got.DX.Clone(), cfg)
		if err != nil {
			t.Fatalf("L=%d unaliased copy: %v", layers, err)
		}
		want2, err := StepWorlds(twin, want.Y.Clone(), want.DX.Clone(), twinCfg)
		if err != nil {
			t.Fatal(err)
		}
		sameAsTwin(t, fmt.Sprintf("L=%d unaliased copy", layers), got2, want2)
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
		specs[i] = gradsync.LayerSpec{Elems: w.gradElems(), Points: w.syncPoints(cache), V: stepVolumes(w, cache.tpad)}
		cur = y
	}
	p, err := gradsync.Solve(gradsync.Config{
		Strategy: cfg.Strategy, Models: plannerModels, ChunkBytes: cfg.ChunkBytes,
		Slices: cfg.Slices, ElemBytes: gradElemBytes,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	p.Begin(nil)
	return p.Finish().Gar
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
	dy := tensor.RandN(xrand.New(312), 1e-3, 96, 32)
	xs := tensor.RandN(xrand.New(313), 1, 64, 32)
	// Fourteen steps on one batch: keep the output gradient small, or the
	// parameters reach NaN.
	dys := tensor.RandN(xrand.New(314), 1e-3, 64, 32)
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
	if slices.Max(held.MoEBytes)+slices.Max(held.DenseBytes) <= 0 {
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
	step("Strategy again", x, dy, false)
	cfg.Strategy = gradsync.StrategyFSMoE
	step("back to adaptive", x, dy, true)

	// Lose rank 1 for good, recover onto two ranks: other volumes, the same
	// buffers.
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
	sameRow(t, "recovered 4→2", res, liveParams(ws))
	step("recovered again", x, dy, false)
}

// stepLayerSlack is TestStepAllocationBound's per-layer byte allowance on
// the token stacks, with and without the race detector. The expert passes
// are bound when a workspace is cut and re-armed by each forward without
// allocating, so what a warm step allocates is the step's, the prolog's and
// the caches' bookkeeping and the closures Order hands ParallelRange. In
// 6 000 runs on a 2-core box (2 000 of each token stack: EP in eval and in
// train mode, and an ESP layer beside a Hybrid g = 2 layer of Mixtral
// experts) a warm step allocated 564 B per layer on every run, and so did
// 50 runs of each under -race, and 3 of each at GOMAXPROCS 1, 4, 8 and 16.
// The allowance is 1.37× that. Before the passes were resident (5 120 B
// then), Begin made a pass value and the headers over its scratch for every
// expert of every rank on every forward. Before the tensor free-list was one
// list, a Get that missed a per-processor pool, or a GEMM scratch buffer met
// at a new concurrency peak, added 4–47 KiB, and -race needed 64 KiB; an OS
// thread the runtime starts inside the window adds 5.1 KiB (spareThreads).
const stepLayerSlack = 773

// TestStepAllocationBound pins the resident state from both sides. On a
// parameter-heavy stack a warm step allocates less than one copy of the
// parameters — the per-step gradient and replica buffers that the resident
// buffers replace were 2·R copies — and makes no single allocation as large
// as one expert's weight matrix: a reintroduced per-step make, or a weight
// gradient that goes through a temporary again, fails here. On a
// token-heavy stack, routed in eval mode and in train mode (GShard's noisy
// gating), and on one of an ESP and a Hybrid g = 2 layer, the second of
// Mixtral experts, a warm step allocates under stepLayerSlack per layer and no
// single allocation as large as one (N, M) token plane: the step's output
// and input gradient are stack-owned workspace slots; the routing metadata
// — score matrices, the noise and the noisy logits, the plan's slot tables,
// reverse index and slot-weight gradient — is gate-owned scratch; the
// expert stages', the GEMMs' and the gate backward's temporaries come from
// the tensor free-list, which keeps every buffer Put back; and the two plans
// are resident and replayed, and so are the expert passes, which a forward
// re-arms — at ESP and Hybrid by copying its hidden columns of W1 (and W3)
// into scratch it already holds. What remains is the §5 and the gate and
// Order's bookkeeping; the two executions run on the worlds' worker sets
// and start no goroutine.
// A batch- or routing-sized allocation per layer, or a plan rebuilt every
// step, does not fit. The collector is off for the window, as in the
// repository benchmark. The bounds are the same under the race detector.
func TestStepAllocationBound(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // every allocation is sampled: sites() below is exact
	const layers, ranks = 2, 4
	ep := func(deg int) [layers]WorldConfig {
		c := WorldConfig{Ranks: ranks, PipelineDegree: deg, Strategy: StrategyEP}
		return [layers]WorldConfig{c, c}
	}
	slack := func(int) int { return layers * stepLayerSlack }
	for _, tc := range []struct {
		name    string
		m, h, n int
		cfgs    [layers]WorldConfig
		mixtral bool // layer 1's experts are MixtralFFN
		train   bool
		bound   func(params int) int // bytes
	}{
		{"parameter-bound", 64, 128, 16, ep(1), false, false, func(params int) int { return 8 * params }},
		{"token-bound", 256, 16, 192, ep(4), false, false, slack},
		{"token-bound noisy", 256, 16, 192, ep(4), false, true, slack},
		// Every pass re-arms on a copy of its hidden columns of W1 (and W3).
		{"column-sharded", 256, 16, 192, [layers]WorldConfig{
			{Ranks: ranks, PipelineDegree: 4, Strategy: StrategyESP},
			{Ranks: ranks, PipelineDegree: 4, Strategy: StrategyHybrid, GroupSize: 2},
		}, true, false, slack},
	} {
		ws := make([]*World, layers)
		params := 0
		for i := range ws {
			l := benchWorldLayer(t, tc.m, tc.h, 8)
			if tc.mixtral && i == 1 {
				rng := xrand.New(8)
				for e := range l.cfg.Experts {
					var err error
					if l.cfg.Experts[e], err = NewMixtralFFN(tc.m, tc.h, rng); err != nil {
						t.Fatal(err)
					}
				}
			}
			w, err := NewWorld(l, tc.cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			ws[i] = w
			total := w.gradElems()
			params += total
		}
		x := tensor.RandN(xrand.New(321), 1, tc.n, tc.m)
		dy := tensor.RandN(xrand.New(322), 1, tc.n, tc.m)
		cfg := StepConfig{LR: 0.01, Train: tc.train}

		spareThreads(runtime.GOMAXPROCS(0) + 4)
		runtime.GC()
		prev := debug.SetGCPercent(-1)
		var perStep uint64
		// Both snapshots of the allocation profile go into buffers made
		// before the window, so reading it adds nothing to it.
		before, after := make([]runtime.MemProfileRecord, 1<<14), make([]runtime.MemProfileRecord, 1<<14)
		for s := 0; s < 5; s++ {
			if s == 4 { // one more step, bracketed by profile reads
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
		// No allocation of the profiled step is as large as a weight matrix
		// (parameter stack) or a token plane (token stack). A profile record
		// is one (call stack, size) pair.
		type site struct {
			stack [32]uintptr
			size  int64
		}
		large, what := int64(tc.m*tc.h*8), "a weight matrix"
		if tc.name != "parameter-bound" {
			large, what = int64(tc.n*tc.m*8), "a token plane"
		}
		was := map[site]int64{}
		for _, rec := range before {
			if rec.AllocObjects > 0 {
				was[site{rec.Stack0, rec.AllocBytes / rec.AllocObjects}] = rec.AllocObjects
			}
		}
		for _, rec := range after {
			if rec.AllocObjects == 0 {
				continue
			}
			size := rec.AllocBytes / rec.AllocObjects
			if n := rec.AllocObjects - was[site{rec.Stack0, size}]; n > 0 && size >= large {
				frames := runtime.CallersFrames(rec.Stack())
				var where []string
				for f, more := frames.Next(); more && len(where) < 6; f, more = frames.Next() {
					where = append(where, f.Function)
				}
				t.Fatalf("%s: a warm step made %d allocations of %d bytes (%s is %d) at %v", tc.name, n, size, what, large, where)
			}
		}
	}
}

// spareThreads leaves the Go runtime n idle OS threads: n goroutines hold a
// thread each (LockOSThread) at once, then let go of it and end, and the
// runtime keeps the threads for reuse. A thread the runtime starts costs
// about 5 KiB of heap for its bookkeeping, charged to whatever happens to
// run when it starts — in TestStepAllocationBound, the step measured when a
// reading of the allocation counters restarts the world, or a plan worker
// wakes another, with no idle thread left. With threads to spare, what a
// step allocates is what the step's code allocates.
func spareThreads(n int) {
	var held, release, done sync.WaitGroup
	held.Add(n)
	release.Add(1)
	done.Add(n)
	for range n {
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			held.Done()
			release.Wait()
			runtime.UnlockOSThread()
		}()
	}
	held.Wait()
	release.Done()
	done.Wait()
}

// spareSudogs leaves the runtime a stock of the records (sudogs) a
// goroutine takes to park on a channel or a WaitGroup: n goroutines park at
// once, then are let go. The runtime keeps what they free, up to 128 on each
// P and the rest centrally until the next collection. Without that stock a
// collection empties the central list, and a park that then finds its P's
// list empty allocates 96 B, charged to whatever is measured: the kernel
// pool's workers and waiters park on one P and wake on another, so some
// lists drain. At GOMAXPROCS 8 one warm forward-only call in five paid one
// or more such records, now and then three (runtime.acquireSudog under
// tensor.(*Pool).helpWait's WaitGroup, in a MemProfileRate = 1 profile).
func spareSudogs(n int) {
	var parked, done sync.WaitGroup
	release := make(chan struct{})
	parked.Add(n)
	done.Add(n)
	for range n {
		go func() {
			defer done.Done()
			parked.Done()
			<-release
		}()
	}
	parked.Wait()
	close(release)
	done.Wait()
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

// TestStepRankDownAfterHealthyStep: the gradient buffer holds last step's
// gradient when a step starts, so an expert span nobody writes must be
// cleared, not left. One healthy step, then rank 1 of layer 0 goes down for
// good, then two more steps on the degraded path: the dead experts'
// parameters stay bit-equal to their pre-fault values in the parameter row
// and in the live layer, and everything else equals a twin that meets the
// same fault while stepping sequentially with the AllReduce exposed.
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
		sameAsTwin(t, label, got, want)
		// A slice counts where it ran, in a plan or in the tail: a degraded
		// pass's unrun slices count once, in the tail.
		if r := got.Report; r.HiddenBytes+r.TailBytes != r.TotalBytes {
			t.Fatalf("%s: hidden %v + tail %v bytes, total %v", label, r.HiddenBytes, r.TailBytes, r.TotalBytes)
		}
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
		for k, want := range frozen {
			if got := math.Float64bits(res.RankParams[0][lo+k]); got != want {
				t.Fatalf("degraded step %d: dead-expert parameter %d = %x, pre-fault %x", s, k, got, want)
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
		sameAsTwin(t, fmt.Sprintf("step %d after the restore", s), got, want)
	}
}

// TestStepGradsBackwardRankDown: a rank lost while a step's backward plan
// runs. Finish tasks of the aborted plan may already have written
// gradient-buffer spans — the dead rank's experts' included — so the
// recovery must forget them: the survivors' spans are rewritten, the dead
// experts' read zero, and the layer's whole span equals that of the same
// degraded pass driven by hand, adding into a zeroed Param.G. In step mode
// the expert spans start out as NaN, standing in for last step's gradient,
// and the gate's is cleared, as StepWorlds does: a span the degraded pass
// left unwritten would stay NaN.
//
// The gate's backward is a plan task that waits for nothing, so it has run
// when the rank goes down; the degraded pass freezes the router. The gate's
// gradient is then what it was before the gate's backward moved into the
// plan — +0, the aborted plan's contribution cleared with the rest — and
// the gate's backward ran once, not again on the degraded path.
func TestStepGradsBackwardRankDown(t *testing.T) {
	x := tensor.RandN(xrand.New(341), 1, 96, 32)
	dy := tensor.RandN(xrand.New(342), 1, 96, 32)
	var w *World
	run := func(stepMode bool) []float64 {
		w = stepStack(t, 1, 4, 2, false)[0]
		gate := &countingGate{Gate: w.layer.cfg.Gate}
		w.layer.cfg.Gate = gate
		defer func() {
			if gate.backwards != 1 {
				t.Fatalf("step mode %v: the gate's backward ran %d times, want once", stepMode, gate.backwards)
			}
		}()
		st, err := stackFor("sync", []*World{w}, true)
		if err != nil {
			t.Fatal(err)
		}
		grads := st.layerGrads(0)
		if stepMode {
			for k := range grads {
				grads[k] = math.NaN()
			}
			clear(grads[:w.gradOff[0]])
		} else {
			w.layer.ZeroGrad()
		}
		_, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaultPlan(fault.New(fault.Spec{Seed: 4, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
		_, err = w.backward(cache, dy, call{step: stepMode}) // a plain Backward's, or a step's
		if err != nil {
			t.Fatal(err)
		}
		if deg := w.LastDegraded(); deg == nil || deg.Phase != "backward" {
			t.Fatalf("DegradedResult = %+v, want a backward-phase loss", deg)
		}
		// The aborted plan's trace: the gate task ran before the loss.
		if !slices.ContainsFunc(w.LastTrace().Intervals, func(iv sim.Interval) bool { return iv.Task.Label == "G" }) {
			t.Fatalf("step mode %v: the aborted backward plan has no gate task", stepMode)
		}
		for _, ev := range w.LastTrace().Events {
			if ev.Label == "G" && ev.Type == sim.EventSkip {
				t.Fatalf("step mode %v: the gate task was skipped; the loss must come after it ran", stepMode)
			}
		}
		for k, v := range grads[:w.gradOff[0]] {
			if math.Float64bits(v) != 0 {
				t.Fatalf("step mode %v: gate gradient %d = %v after the degraded pass, want +0", stepMode, k, v)
			}
		}
		return grads
	}
	want, got := run(false), run(true)
	for k, v := range want {
		if math.Float64bits(got[k]) != math.Float64bits(v) {
			t.Fatalf("gradient %d = %v, through Param.G %v", k, got[k], v)
		}
	}
	lo, hi := w.lostRange()
	for k, v := range got[w.gradOff[lo]:w.gradOff[hi]] {
		if math.Float64bits(v) != 0 {
			t.Fatalf("dead rank %d's expert gradient %d = %v, want +0", w.down, w.gradOff[lo]+k, v)
		}
	}
}

// TestStepWritesViews: after a step under each placement strategy, every
// Param.W is a view of the parameter row at its flat offset and every
// Param.G a view of the stack's gradient buffer, and Param.G holds the
// step's gradient — bit-equal to what ZeroGrad and a Forward/Backward driven
// by hand leave in a twin stack given the pre-step parameters (of the second
// step, so a gradient the first left behind shows). Then two stacks that
// share their first world and have equal layouts, stepped alternately three
// times each, each equal their Sequential + SyncNoOverlap twin and their
// live Param.W: a stack is found by identity, not by layout, so neither
// stack steps the other's parameters.
func TestStepWritesViews(t *testing.T) {
	x := tensor.RandN(xrand.New(351), 1, 96, 32)
	dy := tensor.RandN(xrand.New(352), 1, 96, 32)
	for _, wc := range []WorldConfig{
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP},
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP},
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2},
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyDenseSlots},
	} {
		label := string(wc.Strategy)
		// The second step is the one checked: a gradient left over from the
		// first must not leak into it.
		ws, ref := strategyStack(t, 2, wc), strategyStack(t, 2, wc)
		var res *StepResult
		for s := 0; s < 2; s++ {
			for i, w := range ws {
				for j, p := range w.layer.Params() {
					copy(ref[i].layer.Params()[j].W.Data(), p.W.Data())
				}
			}
			var err error
			if res, err = StepWorlds(ws, x, dy, StepConfig{LR: 0.05, Slices: 3}); err != nil {
				t.Fatalf("%s step %d: %v", label, s, err)
			}
		}
		handGrads(t, ref, x, dy)
		row, grads := res.RankParams[0], ws[0].layer.stack.grads
		base := 0
		for i, w := range ws {
			// Each parameter group from its flat offset: the gate's at 0,
			// expert e's at gradOff[e].
			groups := [][]*Param{w.layer.cfg.Gate.Params()}
			refGroups := [][]*Param{ref[i].layer.cfg.Gate.Params()}
			starts := []int{0}
			for e, ex := range w.layer.cfg.Experts {
				groups = append(groups, ex.Params())
				refGroups = append(refGroups, ref[i].layer.cfg.Experts[e].Params())
				starts = append(starts, w.gradOff[e])
			}
			for gi, ps := range groups {
				k := base + starts[gi]
				for j, p := range ps {
					n := len(p.W.Data())
					if !sameMemory(p.W.Data(), row[k:k+n]) {
						t.Fatalf("%s layer %d: Param.W %s is not the parameter row at %d", label, i, p.Name, k)
					}
					if !sameMemory(p.G.Data(), grads[k:k+n]) {
						t.Fatalf("%s layer %d: Param.G %s is not the gradient buffer at %d", label, i, p.Name, k)
					}
					for q, v := range refGroups[gi][j].G.Data() {
						if g := p.G.Data()[q]; math.Float64bits(g) != math.Float64bits(v) {
							t.Fatalf("%s layer %d group %d: Param.G %s element %d = %v, by hand %v", label, i, gi, p.Name, q, g, v)
						}
					}
					k += n
				}
			}
			base += w.gradElems()
		}
		if base != len(row) {
			t.Fatalf("%s: parameter row of %d elements, the layers have %d", label, len(row), base)
		}

		// Two stacks over a shared first world, and their twins.
		shared, twin := strategyStack(t, 3, wc), strategyStack(t, 3, wc)
		cfg := StepConfig{LR: 0.05, Slices: 3}
		twinCfg := StepConfig{LR: 0.05, Sequential: true, Strategy: gradsync.StrategyNoOverlap}
		for s := 0; s < 6; s++ {
			pick := func(st []*World) []*World { return []*World{st[0], st[1+s%2]} }
			got, err := StepWorlds(pick(shared), x, dy, cfg)
			if err != nil {
				t.Fatalf("%s step %d: %v", label, s, err)
			}
			want, err := StepWorlds(pick(twin), x, dy, twinCfg)
			if err != nil {
				t.Fatalf("%s twin step %d: %v", label, s, err)
			}
			sameAsTwin(t, fmt.Sprintf("%s shared-world step %d", label, s), got, want)
			sameRow(t, fmt.Sprintf("%s shared-world step %d live", label, s), got, liveParams(pick(shared)))
		}
	}
}

// handGrads zeroes the stack's gradients and drives one Forward/Backward
// through it by hand, leaving the full-batch gradient in every Param.G.
func handGrads(t *testing.T, worlds []*World, x, dy *tensor.Tensor) {
	t.Helper()
	caches := make([]*WorldCache, len(worlds))
	cur := x
	for i, w := range worlds {
		w.layer.ZeroGrad()
		y, c, err := w.Forward(cur, false)
		if err != nil {
			t.Fatal(err)
		}
		cur, caches[i] = y, c
	}
	for i := len(worlds) - 1; i >= 0; i-- {
		dx, err := worlds[i].Backward(caches[i], dy)
		if err != nil {
			t.Fatal(err)
		}
		dy = dx
	}
}
