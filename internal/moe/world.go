package moe

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	stdsync "sync"
	"time"

	"repro/internal/ckpt"
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
// expert-sharding group width: pure expert parallelism (EP, DenseSlots),
// sharded expert compute with AllGather/ReduceScatter stages (ESP), or
// groups of sharding members between the two (Hybrid).
//
// Data layout: the gate and order run once on the global batch (they are
// replicated in expert-parallel training); the resulting (E, T, M)
// expert-major tensor is sharded by slot rows — rank i owns rows
// [i·S, (i+1)·S) of every expert's block, S = ⌈T/R⌉. What happens to those
// shards from there is the builder's business; every strategy is
// bit-identical to MOELayer.Forward/Backward at any (R, r).
type World struct {
	layer *MOELayer
	cfg   WorldConfig
	egrp  int       // experts per rank (expert-sharding owner groups)
	pl    placement // cfg.Strategy resolved against the layer and rank count

	// Resource governance: up to workers plan tasks run at once (the
	// executor's k for this world's streams), and every expert kernel fans
	// out onto the one pool, whose width leaves room for all of them.
	workers int
	pool    *tensor.Pool

	// Stream names, built once beside the pool: per rank compute:<r>, per
	// expert-sharding group intra:g<G>.
	computeStreams, groupStreams []string

	// ws is the idle token-path workspace (workspace.go): nil until the
	// first backward hands one back and while a forward cache holds it.
	ws *workspace

	seq bool // execute plans sequentially (no-overlap baseline)

	// sync receives the inter-stream emit points while a backward plan is
	// under construction — the executable seam for §5's Gradient-AllReduce
	// overlap; nil outside StepWorlds' backward. BeginLayer announces how
	// many points the plan will offer; EmitAt may then append tasks to the
	// plan on the shared inter stream at each point. Every strategy offers
	// point 0 in the slack before its first outbound gradient collective
	// and point c ≥ 1 after the c-th one, so emitted tasks contend with the
	// layer's own inter-node chunks exactly as §5 budgets for (under ESP
	// the inter stream carries no AlltoAll at all, so the slices overlap
	// the intra-stream AllGather/ReduceScatter freely — the §4 inter/intra
	// co-scheduling).
	sync *gradsync.Syncer

	statsMu  stdsync.Mutex
	stats    comm.Stats
	lastPlan *runtime.Plan
	lastTr   *sim.Trace

	// Fault tolerance: an optional seeded injector threaded into every
	// executed plan (and, via collGuard, into the collectives themselves),
	// the retry policy for transient collective failures, an optional
	// per-plan deadline, and the world's rank-health state. down is the
	// permanently failed rank (-1 while all ranks are healthy); once a rank
	// is down every pass runs on the degraded path until ResetHealth.
	faults   *fault.Plan
	retry    runtime.RetryPolicy
	deadline time.Duration
	collOps  int // collectives planned so far: deterministic guard op ids
	down     int
	degraded *DegradedResult
	closed   bool

	steps int // completed training steps on this world (telemetry ordinal)

	// gradOff[e] is the offset of expert e's first parameter in the flat
	// gradElems layout: gradOff[0] is the dense (gate) prefix length and
	// gradOff[E] the total. Counted at NewWorld and at the Recover commit.
	gradOff []int

	// resident is the stack-level training state kept from one step to the
	// next (step.go); it lives on the stack's first world.
	resident *resident

	// grads is where this pass's finish routines put the expert parameter
	// gradients: nil — every backward adds into Param.G — except while
	// StepWorlds drives the backward, when it is this layer's spans of the
	// resident arenas (step.go).
	grads *stepGrads

	// recov accumulates elastic-recovery reports (recover.go) until the
	// next completed step drains them into telemetry.
	recov []*RecoveryReport

	// ckpt is the checkpoint manager a step of this world's stack last
	// started a commit on; Close drains it.
	ckpt *ckpt.Manager
}

// WorldConfig configures multi-rank pipelined execution of a layer.
//
// Strategy selects the parallel scheme; the zero value is StrategyAuto.
// PipelineDegree selects the number of chunks r each collective chain is
// split into. Zero means automatic: Algorithm 1 (§4.4) runs per phase on
// the planner's cost model — Testbed A's fitted performance models and a
// degree cap of 16 (planner.go) — with volumes derived from the layer's
// real shape, BatchTokens and the chosen strategy. NewWorld resolves both;
// the chosen strategy and degrees are what actually execute.
type WorldConfig struct {
	Ranks             int          // R; how the layer is sharded depends on Strategy
	PipelineDegree    int          // forward r; 0 = Algorithm 1 (<0 means 1)
	PipelineDegreeBwd int          // backward r; 0 inherits (auto mode optimizes it separately)
	Algo              comm.A2AAlgo // AlltoAll algorithm for EP/DenseSlots (default Direct)
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
// validates the pairing of the layer, the resolved configuration and its
// parallel strategy. Requirements every strategy shares are checked here;
// strategy-specific ones (expert execution contracts, routing kinds) are
// checked by the strategy itself so the error names the strategy and the
// unsupported combination.
func NewWorld(layer *MOELayer, cfg WorldConfig) (*World, error) {
	if layer == nil {
		return nil, fmt.Errorf("moe: world needs a layer")
	}
	cfg, _, _ = resolve(layer, cfg)
	e := len(layer.cfg.Experts)
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("moe: world needs at least one rank, got %d", cfg.Ranks)
	}
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
	if len(layer.cfg.Hooks) > 0 {
		return nil, fmt.Errorf("moe: world does not support layer hooks (they wrap the monolithic dispatch)")
	}
	if layer.seqExperts {
		return nil, fmt.Errorf("moe: world requires provably distinct expert instances (aliased experts cannot be sharded)")
	}
	pl, err := place(cfg)
	if err != nil {
		return nil, err
	}
	w := &World{layer: layer, cfg: cfg, egrp: e / cfg.Ranks, pl: pl, down: -1}
	// Default retry: transient collective failures get a handful of
	// backed-off attempts; everything else fails fast. Inert until a fault
	// plan is installed — real errors are never classified transient.
	w.retry = runtime.RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		Jitter:      0.2,
		Kinds:       []string{KindA2A, KindAG, KindRS, gradsync.KindAllReduce},
	}
	w.planResources()
	w.countGradElems()
	return w, nil
}

// planResources sizes the world to the machine at construction time. Its
// plans use at most R compute streams, one intra stream per group when g > 1,
// and the inter stream, so the executor runs them on k = that count capped
// at GOMAXPROCS workers (runtime.Plan.ExecuteCtx). The one kernel pool is
// ⌊GOMAXPROCS/k⌋ wide, so k kernels fanning out at once never exceed the
// machine.
func (w *World) planResources() {
	procs := goruntime.GOMAXPROCS(0)
	R := w.cfg.Ranks
	streams := R + 1
	if w.pl.g > 1 {
		streams += R / w.pl.g
	}
	w.workers = min(streams, procs)
	w.pool = tensor.NewPool(max(1, procs/w.workers))
	w.computeStreams = make([]string, R)
	w.groupStreams = make([]string, R/w.pl.g)
	for r := range w.computeStreams {
		w.computeStreams[r] = fmt.Sprintf("compute:%d", r)
	}
	for g := range w.groupStreams {
		w.groupStreams[g] = fmt.Sprintf("intra:g%d", g)
	}
}

// ResourcePlan reports how the world sizes itself to the machine: the width
// of its one kernel pool, which every expert GEMM fans out onto, and k, the
// most plan workers that run at once. Their product never exceeds
// GOMAXPROCS.
func (w *World) ResourcePlan() (width, workers int) {
	return w.pool.Workers(), w.workers
}

// ErrWorldClosed reports use of a closed World: a second Close, or a
// Forward/Backward after Close. Match it with errors.Is.
var ErrWorldClosed = errors.New("moe: world is closed")

// Close releases the kernel pool's worker goroutines and the token-path
// workspace and retires the world: subsequent Forward/Backward/Close calls
// fail with ErrWorldClosed instead of stepping on a released pool. The
// world must be idle. Close also waits for the checkpoint commit its stack
// last started and returns that commit's failure (ckpt.ErrCommit), if any.
func (w *World) Close() error {
	if w.closed {
		return fmt.Errorf("moe: double close: %w", ErrWorldClosed)
	}
	w.closed = true
	w.pool.Close()
	w.ws = nil
	if m := w.ckpt; m != nil {
		w.ckpt = nil
		return m.Wait()
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
// pipelined makespan from sequential measurements. Both are nil after a
// pass that ran entirely on the degraded sequential path (no stream plan
// exists for it).
func (w *World) LastPlan() *runtime.Plan { return w.lastPlan }
func (w *World) LastTrace() *sim.Trace   { return w.lastTr }

// SetFaultPlan installs (or, with nil, removes) a seeded fault injector.
// It is threaded into every subsequently executed plan and, through
// per-collective guards, into the comm collectives themselves. Takes
// effect from the next Forward.
func (w *World) SetFaultPlan(fp *fault.Plan) { w.faults = fp }

// SetRetry replaces the default transient-retry policy (4 attempts,
// exponential backoff with jitter, collective task kinds only).
func (w *World) SetRetry(rp runtime.RetryPolicy) { w.retry = rp }

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

// ResetHealth clears the rank-down state, the last degraded report, and
// the aborted pass's stream plan and trace — the "failed worker replaced"
// transition back to full-strength stepping. After ResetHealth the world
// reports exactly the health state elastic recovery leaves behind
// (recover.go), so tooling can treat the two transitions uniformly. Dead
// experts kept zero gradients while degraded, so their parameters resume
// unchanged.
func (w *World) ResetHealth() {
	w.down = -1
	w.degraded = nil
	w.lastPlan = nil
	w.lastTr = nil
}

// LastDegraded returns the degraded-mode report of the most recent pass,
// or nil if the pass ran at full strength: which experts were lost, tokens
// re-routed or dropped, retries spent, and the recovery-time tail.
func (w *World) LastDegraded() *DegradedResult { return w.degraded }

// collGuard mints the fault-injection guard for the collective of the task
// about to be added to p (nil: an operation outside any plan, retried by its
// caller). Guards are created at plan-build time with a monotone operation
// id, so which collectives fail is a deterministic function of the fault
// seed and the sequence of passes, independent of stream interleaving.
// Returns nil (check nothing) when injection is off.
func (w *World) collGuard(p *runtime.Plan, stream, kind string) comm.Guard {
	if w.faults == nil {
		return nil
	}
	id, task := w.collOps, -1
	w.collOps++
	if p != nil {
		task = p.Len()
	}
	return comm.Guard(w.faults.Guard(stream, kind, task, id))
}

// WorldCache carries a forward pass's state to Backward. The cache holds
// the world's workspace: scattered, combined and everything experts points
// at are world-owned memory, valid until this cache's Backward returns.
type WorldCache struct {
	pr         *forwardProlog
	spad, tpad int
	ws         *workspace     // checked out by Forward, handed back by Backward
	scattered  *tensor.Tensor // (E, Tpad, M), the sequential layer's expert inputs
	combined   *tensor.Tensor // (E, Tpad, M), the sequential layer's expertOut in rows [0, T) of each block
	experts    [][]ExpertPass // [rank][expert of its group] the passes buildForward began
	deg        *degradedState // non-nil when the forward ran degraded
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

// run executes a plan under the current mode — threading the fault
// injector, retry policy and deadline in — records it, and returns the
// joined task errors.
func (w *World) run(p *runtime.Plan) error {
	if w.faults != nil {
		p.SetFaultPlan(w.faults)
	}
	p.SetRetry(w.retry)
	ctx := context.Background()
	if w.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.deadline)
		defer cancel()
	}
	var tr *sim.Trace
	var err error
	if w.seq {
		tr, err = p.ExecuteSequentialCtx(ctx)
	} else {
		tr, err = p.ExecuteCtx(ctx)
	}
	w.lastPlan, w.lastTr = p, tr
	return err
}

// Forward runs the pipelined multi-rank forward pass on x, shaped (B, L, M)
// or (N, M). Results are
// bit-identical to MOELayer.Forward on the same layer and input under
// every strategy. A permanent rank failure mid-plan does not abort: the
// pass completes on the degraded path (see degraded.go) and LastDegraded
// reports what was lost.
func (w *World) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, *WorldCache, error) {
	return w.forward(x, train, false)
}

// forward is Forward; inner says the output feeds the next world of a
// StepWorlds stack, which reads it only until this world's own Backward
// returns — so it is a workspace slot instead of a tensor the caller keeps.
func (w *World) forward(x *tensor.Tensor, train, inner bool) (*tensor.Tensor, *WorldCache, error) {
	if w.closed {
		return nil, nil, fmt.Errorf("moe: forward: %w", ErrWorldClosed)
	}
	w.degraded = nil
	pr, err := w.layer.prolog(x, train)
	if err != nil {
		return nil, nil, err
	}
	if err := w.pl.planCheck(w.cfg.Strategy, pr.plan); err != nil {
		return nil, nil, err
	}
	if w.down >= 0 {
		// The world is already degraded: skip plan construction entirely
		// and run the sequential fallback around the dead rank.
		w.lastPlan, w.lastTr = nil, nil
		return w.degradedForward(pr, 0, fmt.Sprintf("rank %d still down", w.down))
	}
	R, mdim := w.cfg.Ranks, w.layer.cfg.M
	plan := pr.plan
	spad := (plan.Capacity + R - 1) / R
	ws := w.checkout(plan.Capacity)
	cache := &WorldCache{pr: pr, spad: spad, tpad: spad * R, ws: ws}

	// Order scatters straight into the rank-divisible padded layout every
	// transfer shares (pad rows enter the pipeline as exact zeros, so they
	// never perturb a result).
	cache.scattered = ws.tensor(plan.Experts, cache.tpad, mdim)
	w.layer.cfg.Order.Scatter(cache.scattered, pr.flat, plan)
	combined := ws.tensor(plan.Experts, cache.tpad, mdim)

	p := runtime.NewPlan()
	w.buildForward(p, cache, cache.scattered, combined)
	if err := w.run(p); err != nil {
		// Every task has drained; nothing of the aborted pass is read again.
		w.release(cache)
		if rank, ok := fault.PermanentRank(err); ok {
			w.down = rank
			return w.degradedForward(pr, retriesIn(w.lastTr), err.Error())
		}
		return nil, nil, err
	}

	cache.combined = combined
	y := w.layer.epilog(ws.tokens(inner, pr.flat.Dim(0), mdim), combined, plan, pr.shape)
	return y, cache, nil
}

// Backward runs the pipelined multi-rank backward pass, accumulating the
// same parameter gradients and returning the same input gradient as
// MOELayer.Backward.
func (w *World) Backward(cache *WorldCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	return w.backward(cache, dy, false)
}

// backward is Backward; inner says the input gradient feeds the previous
// world of a StepWorlds stack, which reads it within the step — before this
// world's next Forward takes its workspace again.
func (w *World) backward(cache *WorldCache, dy *tensor.Tensor, inner bool) (*tensor.Tensor, error) {
	if w.closed {
		return nil, fmt.Errorf("moe: backward: %w", ErrWorldClosed)
	}
	if cache == nil || cache.combined == nil {
		return nil, fmt.Errorf("moe: world backward needs a forward cache")
	}
	if cache.deg != nil {
		// The forward already ran degraded; its cache pairs only with the
		// degraded backward.
		w.lastPlan, w.lastTr = nil, nil
		return w.degradedBackward(cache, dy)
	}
	pr, ws := cache.pr, cache.ws
	plan := pr.plan
	n, mdim := pr.flat.Dim(0), w.layer.cfg.M

	dpad := ws.tensor(plan.Experts, cache.tpad, mdim)
	planGrad, err := w.layer.backwardProlog(dpad, cache.combined, plan, dy)
	if err != nil {
		return nil, err
	}
	dScattered := ws.tensor(plan.Experts, cache.tpad, mdim)

	p := runtime.NewPlan()
	w.buildBackward(p, cache, dpad, dScattered)
	if err := w.run(p); err != nil {
		if rank, ok := fault.PermanentRank(err); ok {
			w.down = rank
			return w.degradedBackwardRecover(cache, dy, retriesIn(w.lastTr), err.Error())
		}
		return nil, err
	}
	dx := w.layer.backwardFinish(ws.tokens(inner, n, mdim), ws.tensor(n, mdim), dScattered, planGrad, pr.flat, pr.rc, plan, pr.shape)
	w.release(cache)
	return dx, nil
}

// retriesIn counts the transient-fault retries an aborted trace spent.
func retriesIn(tr *sim.Trace) int {
	if tr == nil {
		return 0
	}
	return tr.EventCount(sim.EventRetry)
}

// gradDst is where expert e's pass puts its parameter gradients: nil — added
// to Param.G — except during a training step.
func (w *World) gradDst(e int) GradDst {
	if w.grads == nil {
		return nil
	}
	return w.grads.into[e]
}

// wrote records that expert e's pass finished: during a training step its
// arena span now holds this step's gradient.
func (w *World) wrote(e int) {
	if w.grads != nil {
		w.grads.written[e] = true
	}
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

// gradElems returns the layer's flattened gradient length. The flat layout
// is gate parameters in Params() order followed by each expert's
// parameters in expert-index order, matching MOELayer.Params.
func (w *World) gradElems() int { return w.gradOff[len(w.gradOff)-1] }

// countGradElems walks the parameter list once for gradElems and rankGrads;
// NewWorld and the Recover commit call it, the step path only reads the
// result.
func (w *World) countGradElems() {
	off := 0
	for _, p := range w.layer.cfg.Gate.Params() {
		off += len(p.G.Data())
	}
	w.gradOff = append(w.gradOff[:0], off)
	for _, ex := range w.layer.cfg.Experts {
		for _, p := range ex.Params() {
			off += len(p.G.Data())
		}
		w.gradOff = append(w.gradOff, off)
	}
}

// ownerSpans cuts the layer's flat gradient layout into the spans each rank
// owns, in order: rank r's comm.SplitFlat shard of every gate parameter
// (the in-process ranks share one gate computation; the shards model each
// rank's disjoint contribution), then its expert shard gradOff[r·Eg :
// (r+1)·Eg), where every strategy writes those experts' gradients.
func (w *World) ownerSpans() []gradsync.Span {
	var out []gradsync.Span
	off := 0
	for _, p := range w.layer.cfg.Gate.Params() {
		n := len(p.G.Data())
		for r, rr := range comm.SplitFlat(n, w.cfg.Ranks) {
			out = append(out, gradsync.Span{Lo: off + rr.Lo, Hi: off + rr.Hi, Rank: r})
		}
		off += n
	}
	for r := 0; r < w.cfg.Ranks; r++ {
		out = append(out, gradsync.Span{Lo: w.gradOff[r*w.egrp], Hi: w.gradOff[(r+1)*w.egrp], Rank: r})
	}
	return slices.DeleteFunc(out, func(sp gradsync.Span) bool { return sp.Lo == sp.Hi })
}

// rankGrads writes the last backward pass's parameter gradients into their
// owners' spans (owners, ownerSpans' cut) of out: the gate's shards and,
// when written is nil, every expert's. Experts a step's finish tasks wrote
// (written[e]) are left alone, and one no finish routine ran for — a dead
// rank's — has its owned span cleared. Nothing outside owned spans is
// written: that is the gather's to overwrite.
func (w *World) rankGrads(out [][]float64, owners []gradsync.Span, written []bool) {
	k, off := 0, 0
	for _, p := range w.layer.cfg.Gate.Params() {
		g := p.G.Data()
		for ; k < len(owners) && owners[k].Hi <= off+len(g); k++ {
			sp := owners[k]
			copy(out[sp.Rank][sp.Lo:sp.Hi], g[sp.Lo-off:sp.Hi-off])
		}
		off += len(g)
	}
	for e, ex := range w.layer.cfg.Experts {
		span := out[e/w.egrp][w.gradOff[e]:w.gradOff[e+1]]
		if written == nil {
			for _, p := range ex.Params() {
				span = span[copy(span, p.G.Data()):]
			}
		} else if !written[e] {
			clear(span)
		}
	}
}
