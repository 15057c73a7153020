package moe

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	stdsync "sync"
	"time"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/gradsync"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// World executes one MOELayer across R in-process ranks over real comm
// collectives, driven through the stream runtime — the executable
// counterpart of the schedules internal/core builds for the simulator
// (§4.1). World itself owns only what every parallel scheme shares: the
// gate/order prolog and epilog, the padded slot layout, plan execution and
// trace capture. How the layer's work is split across ranks — which collectives
// move what, on which streams, interleaved how — is the one plan builder's
// business (strategy_plan.go), which reads the configured Strategy as an
// expert-sharding group width g: pure expert parallelism (EP, DenseSlots,
// g = 1), sharded expert compute with AllGather/ReduceScatter stages (ESP,
// g = R), or groups of sharding members between the two (Hybrid). Every
// width runs hard and dense routing plans alike.
//
// Data layout: the gate runs once on the global batch (it is replicated in
// expert-parallel training), and its plan's (E, T, M) expert-major layout
// is sharded by slot rows — rank i owns rows [i·S, (i+1)·S) of every
// expert's block, S = ⌈T/R⌉. For a sparse plan at R > 1 that layout is
// never written out: the first collectives gather each rank's slot rows
// from the input through the plan's slot index (the Order's Scatter, fused
// into the dispatch), unless the layer's dispatch hooks need the buffer.
// Otherwise the Order scatters into a padded buffer first. What happens to
// the shards from there is the builder's business; every strategy is
// bit-identical to the layer's own one-rank World (MOELayer.Forward and
// Backward) at any (R, r).
type World struct {
	layer *MOELayer
	cfg   WorldConfig
	egrp  int // experts per rank (expert-sharding owner groups)
	g     int // expert-sharding group width: what cfg.Strategy resolved to (resolve)

	// Resource governance: exec's k workers run up to k plan tasks at once,
	// and every expert kernel fans out onto the one pool, sized for them all.
	exec *runtime.WorkerSet
	pool *tensor.Pool

	// Stream names, built once beside the pool: per rank compute:<r>, per
	// expert-sharding group intra:g<G>.
	computeStreams, groupStreams []string

	// ws is the idle token-path workspace (workspace.go): nil until the
	// first backward hands one back and while a forward cache holds it.
	ws *workspace

	seq bool // a plain Forward/Backward executes its plan sequentially (no-overlap baseline)

	statsMu  stdsync.Mutex
	stats    comm.Stats
	lastPlan *runtime.Plan
	lastTr   *sim.Trace

	// Fault tolerance: an optional seeded injector threaded into every
	// executed plan, an optional per-plan deadline, and the world's
	// rank-health state. down is the permanently failed rank (-1 while all
	// ranks are healthy); once a rank is down every pass runs degraded, on
	// the layer's own one-rank World without the dead rank's experts
	// (degraded.go), until ResetHealth.
	faults   *fault.Plan
	deadline time.Duration
	down     int
	degraded *DegradedResult
	closed   bool

	steps int // completed training steps on this world (telemetry ordinal)

	// params is the layer's parameters in the flat layout, MOELayer.Params
	// order (gate, then each expert's), and gradOff[e] the offset of expert
	// e's first element in it: gradOff[0] is the dense (gate) prefix length
	// and gradOff[E] the total. Listed once, at NewWorld: a layer's
	// parameter set is fixed for its life.
	params  []*Param
	gradOff []int
}

// WorldConfig configures multi-rank pipelined execution of a layer.
//
// Strategy selects the parallel scheme; the zero value is StrategyAuto.
// PipelineDegree selects the number of chunks r each collective chain is
// split into. Zero means automatic: Algorithm 1 (§4.4) runs per phase on
// the planner's cost model — Testbed A's fitted performance models and a
// degree cap of 16 (planner.go) — with volumes derived from the layer's
// real shape, BatchTokens and each group width the strategy allows.
// NewWorld resolves both; the chosen width and degrees are what actually
// execute.
type WorldConfig struct {
	Ranks             int          // R; how the layer is sharded depends on Strategy
	PipelineDegree    int          // forward r; 0 = Algorithm 1 (<0 means 1)
	PipelineDegreeBwd int          // backward r; 0 inherits (auto mode optimizes it separately)
	Algo              comm.A2AAlgo // AlltoAll algorithm for every strategy with dispatch lanes, g < R (default Direct)
	GPUsPerNode       int          // node shape for 1DH/2DH and ring Stats (default Ranks)
	Strategy          Strategy     // parallel scheme (default StrategyAuto)

	// GroupSize is the expert-sharding group width g for StrategyHybrid:
	// the R ranks split into R/g dispatch groups of g sharding members, so
	// it must divide Ranks, with 1 ≡ pure EP and Ranks ≡ pure ESP. Zero
	// with an explicit StrategyHybrid means automatic: the 2-D Algorithm-1
	// grid picks the group size over the divisors of Ranks along with the
	// pipeline degrees. Ignored by the other strategies.
	GroupSize int

	// BatchTokens is B·L tokens per iteration (default 4096), the volume
	// input of StrategyAuto and the automatic pipeline degrees.
	BatchTokens int

	// Sink, when non-nil, receives one telemetry.StepMetrics per completed
	// training step (StepWorlds) and the record is attached to
	// StepResult.Metrics. With a nil Sink no metrics are built — the step
	// hot path sees a single nil check and zero additional allocations.
	// When a stack's worlds carry distinct sinks, each distinct sink
	// receives the step's record once.
	Sink telemetry.Sink
}

// NewWorld resolves the configuration against the layer (planner.go) and
// validates the pairing of the layer and the resolved configuration; a
// strategy's own requirement, a hybrid GroupSize that divides the rank
// count, fails naming the strategy (widths).
func NewWorld(layer *MOELayer, cfg WorldConfig) (*World, error) {
	if layer == nil {
		return nil, fmt.Errorf("moe: world needs a layer")
	}
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("moe: world needs at least one rank, got %d", cfg.Ranks)
	}
	cfg, g, _, _, err := resolve(layer, cfg)
	if err != nil {
		return nil, err
	}
	e := len(layer.cfg.Experts)
	if e%cfg.Ranks != 0 {
		return nil, fmt.Errorf("moe: %d experts not divisible across %d ranks", e, cfg.Ranks)
	}
	if cfg.Ranks%cfg.GPUsPerNode != 0 {
		return nil, fmt.Errorf("moe: %d ranks not divisible into nodes of %d", cfg.Ranks, cfg.GPUsPerNode)
	}
	switch cfg.Algo {
	case comm.A2ADirect, comm.A2A1DH, comm.A2A2DH:
	default:
		// Fail fast: Plan.Execute drains every task even after an error, so
		// a bad algorithm discovered mid-plan would run the whole pipeline
		// on zeroed buffers first.
		return nil, fmt.Errorf("moe: unknown alltoall algorithm %q (valid: %s, %s, %s)",
			cfg.Algo, comm.A2ADirect, comm.A2A1DH, comm.A2A2DH)
	}
	w := &World{layer: layer, cfg: cfg, egrp: e / cfg.Ranks, g: g, down: -1}
	w.planResources()
	w.indexParams()
	return w, nil
}

// planResources sizes the world to the machine at NewWorld and recoverTo.
// Its plans use at most R compute streams, one intra stream per group when
// g > 1, the inter stream and the backward's route stream, so it starts the
// world's runtime.WorkerSet, which runs them all, at k = that count capped at
// GOMAXPROCS. The one kernel pool is ⌊GOMAXPROCS/k⌋ wide, so k kernels
// fanning out at once never exceed the machine.
func (w *World) planResources() {
	procs := goruntime.GOMAXPROCS(0)
	R := w.cfg.Ranks
	streams := R + 2
	if w.g > 1 {
		streams += R / w.g
	}
	w.exec = runtime.NewWorkerSet(min(streams, procs))
	w.pool = tensor.NewPool(max(1, procs/w.exec.K()))
	w.nameStreams()
}

// nameStreams names the plans' per-rank compute and per-group intra streams.
func (w *World) nameStreams() {
	R := w.cfg.Ranks
	w.computeStreams = make([]string, R)
	w.groupStreams = make([]string, R/w.g)
	for r := range w.computeStreams {
		w.computeStreams[r] = fmt.Sprintf("compute:%d", r)
	}
	for g := range w.groupStreams {
		w.groupStreams[g] = fmt.Sprintf("intra:g%d", g)
	}
}

// ResourcePlan reports how the world sizes itself to the machine: the width
// of its one kernel pool, which every expert GEMM fans out onto, and k, the
// width of its worker set: the most plan tasks that run at once. Their
// product never exceeds GOMAXPROCS.
func (w *World) ResourcePlan() (width, workers int) {
	return w.pool.Workers(), w.exec.K()
}

// ErrWorldClosed reports use of a closed World: a second Close, or a
// Forward/Backward after Close. Match it with errors.Is.
var ErrWorldClosed = errors.New("moe: world is closed")

// Close stops the worker set and the kernel pool, releases the token-path
// workspace and retires the world: subsequent Forward/Backward/Close calls
// fail with ErrWorldClosed instead of stepping on a released pool. The
// world must be idle. Close also waits for the checkpoint commit of the
// stack whose buffers hold its layer's parameters, and returns that commit's
// failure (ckpt.ErrCommit), if any: every World of the stack does.
func (w *World) Close() error {
	if w.closed {
		return fmt.Errorf("moe: double close: %w", ErrWorldClosed)
	}
	w.closed = true
	w.exec.Close()
	w.pool.Close()
	w.ws = nil
	if st := w.layer.stack; st != nil && st.commit != nil {
		return st.commit.Wait()
	}
	return nil
}

// Ranks returns R.
func (w *World) Ranks() int { return w.cfg.Ranks }

// Strategy returns the parallel scheme in effect.
func (w *World) Strategy() Strategy { return w.cfg.Strategy }

// PipelineDegrees returns the forward and backward chunk counts in effect.
func (w *World) PipelineDegrees() (fwd, bwd int) {
	return w.cfg.PipelineDegree, w.cfg.PipelineDegreeBwd
}

// GroupSize returns the hybrid EP-group size in effect (0 unless the
// strategy is StrategyHybrid), whether configured or grid-chosen.
func (w *World) GroupSize() int {
	if w.cfg.Strategy != StrategyHybrid {
		return 0
	}
	return w.cfg.GroupSize
}

// SetSequential switches plan execution to the no-overlap baseline, one
// task at a time in id order on the calling goroutine (true), or back to
// the k-worker executor (false). Both are runtime.Plan's one executor, at
// k = 1 and at the plan's k. Results are identical either way; only the
// wall-clock differs.
func (w *World) SetSequential(seq bool) { w.seq = seq }

// Stats returns the cumulative collective traffic of every pass so far.
func (w *World) Stats() comm.Stats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.stats
}

// LastPlan and LastTrace return the stream plan and measured trace of the
// most recent pass: LastTrace().Gantt(120) renders the measured Fig. 3, and
// LastPlan().SimulateWith(runtime.Durations(LastTrace())) predicts the
// pipelined makespan from sequential measurements. After a permanent rank
// loss they are the aborted plan and its trace; both are nil after a pass
// that ran entirely degraded (degraded.go): the layer's own World ran its
// plans, and this world keeps no trace of them. Both are resident, not
// copies: the world replays a plan pass after pass, and each execution
// rewrites the plan's one trace, so they are valid until the world's next
// pass.
func (w *World) LastPlan() *runtime.Plan { return w.lastPlan }
func (w *World) LastTrace() *sim.Trace   { return w.lastTr }

// SetFaultPlan installs (or, with nil, removes) a seeded fault injector.
// It is threaded into every subsequently executed plan, whose runtime
// consults it before each task attempt, and into recovery's weight
// re-placement Broadcasts. Takes effect from the next pass, replayed plans
// included.
func (w *World) SetFaultPlan(fp *fault.Plan) { w.faults = fp }

// SetDeadline bounds each subsequent plan execution: a pass whose plan
// exceeds d is cooperatively canceled (its streams drain leak-free) and
// fails with context.DeadlineExceeded inside the joined error. Zero removes
// the deadline.
func (w *World) SetDeadline(d time.Duration) { w.deadline = d }

// Health reports per-rank health; false marks the permanently failed rank
// the world is degraded around.
func (w *World) Health() []bool {
	h := make([]bool, w.cfg.Ranks)
	for i := range h {
		h[i] = i != w.down
	}
	return h
}

// ResetHealth clears the rank-down state, the last degraded report and the
// aborted pass's stream plan and trace — the "failed worker replaced"
// transition back to full-strength stepping — and drops the idle workspace
// of the layer's own World, which only the degraded passes used. After
// ResetHealth the world reports exactly the health state elastic recovery
// leaves behind (recover.go), so tooling can treat the two transitions
// uniformly. Dead experts kept zero gradients while degraded, so their
// parameters resume unchanged.
func (w *World) ResetHealth() {
	w.down = -1
	w.degraded = nil
	w.lastPlan = nil
	w.lastTr = nil
	if lw := w.layer.w; lw != nil {
		lw.ws = nil
	}
}

// LastDegraded returns the degraded-mode report of the most recent pass,
// or nil if the pass ran at full strength: which experts were lost, tokens
// re-routed or dropped, retries spent, and the recovery-time tail.
func (w *World) LastDegraded() *DegradedResult { return w.degraded }

// WorldCache carries a forward pass's state to Backward. The cache holds
// the world's workspace: combined and everything experts points at are
// world-owned memory, valid until this cache's Backward returns.
type WorldCache struct {
	pr         *forwardProlog
	spad, tpad int
	ws         *workspace      // checked out by Forward, handed back by Backward; holds the expert passes
	combined   *tensor.Tensor  // (E, Tpad, M): the combine hooks' result, the experts' outputs in rows [0, T) of each block
	deg        *DegradedResult // non-nil when the forward ran degraded, on the layer's own World
}

// Task kinds in the trace breakdown — aliases of the canonical sim
// vocabulary (sim/vocab.go), matching internal/core's Table 2 strings
// where the operations coincide.
const (
	KindA2A    = sim.KindAlltoAll
	KindAG     = sim.KindAllGather
	KindRS     = sim.KindReduceScatter
	KindExpert = sim.KindExperts
)

// retryBudget is every world's transient-retry policy: a transient
// collective failure is retried at once, up to 4 attempts; everything else
// fails fast. recoverTo's broadcast loop spends the same budget. Inert
// until a fault plan is installed — real errors are never classified
// transient.
var retryBudget = runtime.RetryPolicy{
	MaxAttempts: 4,
	Kinds:       []string{KindA2A, KindAG, KindRS, gradsync.KindAllReduce},
}

// run executes a resident plan — threading the fault injector, retry policy
// and deadline in — records it, and returns the joined task errors.
// It runs on the world's worker set (on the caller alone when seq),
// and after its first execution the tensor free-list is readied for k of its
// tasks at once (tensor.ReserveScratch): they have asked for every size.
func (w *World) run(lp *layerPlan, seq bool) error {
	p := lp.Plan
	p.SetFaultPlan(w.faults)
	p.SetRetry(retryBudget)
	ctx := context.Background()
	if w.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.deadline)
		defer cancel()
	}
	var tr *sim.Trace
	var err error
	if seq {
		tr, err = p.ExecuteSequentialCtx(ctx)
	} else {
		tr, err = p.ExecuteOn(ctx, w.exec)
	}
	w.lastPlan, w.lastTr = p, tr
	if !lp.ran {
		lp.ran = true
		tensor.ReserveScratch(w.exec.K())
	}
	return err
}

// Forward runs the pipelined multi-rank forward pass on x, shaped (B, L, M)
// or (N, M). Results are bit-identical to MOELayer.Forward on the same
// layer and input under every strategy. A permanent rank failure mid-plan
// does not abort a hard-routing pass: it completes degraded (see
// degraded.go) and LastDegraded reports what was lost.
func (w *World) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, *WorldCache, error) {
	return w.forward(x, train, call{seq: w.seq})
}

// call is what a caller decides for one pass, handed down by value: owned,
// that the output (forward) or input gradient (backward) is stack-owned — a
// workspace slot StepWorlds passes on or returns as StepResult.Y or DX,
// valid until the stack's next step; seq, that the plan runs sequentially;
// frozen, that the router runs no backward and adds a +0 input gradient (a
// degraded pass, degraded.go). Under StepWorlds a backward also gets the
// stack's §5 schedule sched, whose Hidden(layer) slices its plan runs at its
// emit points (buildBackward), and step: each expert's finish routine then
// overwrites its Param.G, a span of the stack's gradient buffer; outside a
// step every backward adds into Param.G.
type call struct {
	owned, seq, frozen, step bool
	sched                    *gradsync.Plan
	layer                    int
}

// forward is Forward under the call c.
func (w *World) forward(x *tensor.Tensor, train bool, c call) (*tensor.Tensor, *WorldCache, error) {
	if w.closed {
		return nil, nil, fmt.Errorf("moe: forward: %w", ErrWorldClosed)
	}
	w.degraded = nil
	pr, err := w.layer.prolog(x, train)
	if err != nil {
		return nil, nil, err
	}
	if w.down >= 0 {
		// The world is already degraded: the pass runs degraded alone.
		w.lastPlan, w.lastTr = nil, nil
		return w.degradedForward(pr, c, "forward", 0, nil)
	}
	y, cache, err := w.pass(pr, c)
	if rank, ok := fault.PermanentRank(err); ok {
		w.down = rank
		return w.degradedForward(pr, c, "forward", retriesIn(w.lastTr), err)
	}
	return y, cache, err
}

// pass runs a forward pass from the prolog pr on the world's plans under
// the call c. A failed pass drops its cache.
func (w *World) pass(pr *forwardProlog, c call) (*tensor.Tensor, *WorldCache, error) {
	R, mdim := w.cfg.Ranks, w.layer.cfg.M
	plan := pr.plan
	spad := (plan.Capacity + R - 1) / R
	ws := w.checkout(plan.Capacity)
	cache := &WorldCache{pr: pr, spad: spad, tpad: spad * R, ws: ws}

	// The tokens enter the rank-divisible padded layout every transfer
	// shares, ragged: each expert's block holds data up to its last filled
	// slot, and the plans move and compute those rows alone (setFill) — the
	// pad rows past them would only have added exact zeros. A sparse plan's
	// dispatch gathers them from x through the slot index; otherwise Order
	// scatters them into it. The dispatch hooks act on that buffer before
	// the plan moves it, and a hooked layer's blocks are filled whole.
	ws.setFill(plan, R, spad, w.layer.hooks.has(beforeDispatch, afterDispatch, beforeCombine, afterCombine))
	src := w.tokenSource(cache, false)
	if src.gin != nil {
		w.layer.cfg.Order.Scatter(src.gin, pr.flat, plan)
		if err := w.layer.hooks.applyTo(src.gin, beforeDispatch, afterDispatch); err != nil {
			w.drop(cache)
			return nil, nil, err
		}
	}
	combined := ws.tensor(plan.Experts, cache.tpad, mdim)

	if err := w.run(w.forwardPlan(cache, src, pr.flat.Data(), combined), c.seq); err != nil {
		// Every task has drained; nothing of the aborted pass is read again.
		w.drop(cache)
		return nil, nil, err
	}

	if err := w.layer.hooks.applyTo(combined, beforeCombine, afterCombine); err != nil {
		w.drop(cache)
		return nil, nil, err
	}
	cache.combined = combined
	y := w.layer.epilog(ws.tokens(c.owned, pr.flat.Dim(0), mdim), combined, plan, pr.shape)
	return y, cache, nil
}

// Backward runs the pipelined multi-rank backward pass, accumulating the
// same parameter gradients and returning the same input gradient as
// MOELayer.Backward.
func (w *World) Backward(cache *WorldCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	return w.backward(cache, dy, call{seq: w.seq})
}

// backward is Backward under the call c.
func (w *World) backward(cache *WorldCache, dy *tensor.Tensor, c call) (*tensor.Tensor, error) {
	if w.closed {
		return nil, fmt.Errorf("moe: backward: %w", ErrWorldClosed)
	}
	if cache == nil {
		return nil, fmt.Errorf("moe: world backward needs a forward cache")
	}
	if cache.combined == nil {
		return nil, fmt.Errorf("moe: backward: %w", ErrCacheReleased)
	}
	if cache.deg != nil {
		// The forward ran degraded; so does the backward.
		w.lastPlan, w.lastTr = nil, nil
		return w.degradedBackward(cache, dy, c)
	}
	dx, err := w.backPass(cache, dy, c)
	if rank, ok := fault.PermanentRank(err); ok {
		// The forward runs again degraded under the routing kept, to arm
		// the passes the degraded backward continues; the aborted plan's
		// partial gradients are restarted from zero.
		w.down = rank
		w.layer.ZeroGrad()
		_, dcache, err := w.degradedForward(cache.pr, c, "backward", retriesIn(w.lastTr), err)
		if err != nil {
			return nil, err
		}
		return w.degradedBackward(dcache, dy, c)
	}
	return dx, err
}

// backPass runs a backward pass over cache on the world's plans under the
// call c. A failed pass drops its cache.
func (w *World) backPass(cache *WorldCache, dy *tensor.Tensor, c call) (*tensor.Tensor, error) {
	pr, ws := cache.pr, cache.ws
	plan := pr.plan
	n, mdim := pr.flat.Dim(0), w.layer.cfg.M

	// The output gradient's token side: a sparse plan's combine-gradient
	// collectives gather w·dy rows through the slot index, so only the slot
	// weights' gradient is left to the prolog; otherwise GatherGrad writes
	// the padded buffer.
	src := w.tokenSource(cache, true)
	planGrad, err := w.layer.backwardProlog(src.gin, cache.combined, plan, dy)
	if err != nil {
		return nil, err
	}
	dScattered := ws.tensor(plan.Experts, cache.tpad, mdim)

	lp := w.backwardPlan(cache, src, dy.Data(), dScattered, c)
	ws.route = routeState{dx: ws.tokens(c.owned, n, mdim), gateDx: ws.tensor(n, mdim), dScattered: dScattered,
		x: pr.flat, plan: plan, rc: pr.rc, grad: planGrad, call: c}
	err = w.run(lp, c.seq)
	dx := ws.route.dx
	ws.route = routeState{}
	if err != nil {
		// Every task has drained; nothing of the aborted pass is read again.
		w.drop(cache)
		return nil, err
	}
	w.release(cache)
	return restoreShape(dx, pr.shape), nil
}

// tokenSource is the token side of a pass over cache: for a sparse plan at
// R > 1 the workspace's slot index, with the slot weights on the backward
// (bwd), refreshed from the plan; otherwise — or when the layer has dispatch
// hooks, which act on the buffer — the next workspace slot, as the padded
// expert-major buffer Order fills.
func (w *World) tokenSource(cache *WorldCache, bwd bool) tokenRows {
	plan, ws := cache.pr.plan, cache.ws
	if w.cfg.Ranks > 1 && !plan.IsDense() && !w.layer.hooks.has(beforeDispatch, afterDispatch) {
		return ws.slotRows(plan, cache.tpad, bwd)
	}
	return tokenRows{gin: ws.tensor(plan.Experts, cache.tpad, w.layer.cfg.M)}
}

// retriesIn counts the transient-fault retries an aborted trace spent.
func retriesIn(tr *sim.Trace) int {
	if tr == nil {
		return 0
	}
	return tr.EventCount(sim.EventRetry)
}

// addStats accumulates collective traffic. Locked: the groups' intra
// collectives run on concurrent streams (with one group, or none, every
// measured collective is serialized on one stream and the mutex is
// uncontended).
func (w *World) addStats(st comm.Stats) {
	w.statsMu.Lock()
	w.stats.Merge(st)
	w.statsMu.Unlock()
}

// gradElems returns the layer's flattened parameter count, the length of
// its span of the stack's parameter and gradient buffers.
func (w *World) gradElems() int { return w.gradOff[len(w.gradOff)-1] }

// indexParams lists the layer's parameters and their flat layout once, so
// the step path never calls Params.
func (w *World) indexParams() {
	off := 0
	add := func(ps []*Param) {
		for _, p := range ps {
			w.params = append(w.params, p)
			off += len(p.W.Data())
		}
		w.gradOff = append(w.gradOff, off)
	}
	add(w.layer.cfg.Gate.Params())
	for _, ex := range w.layer.cfg.Experts {
		add(ex.Params())
	}
}
