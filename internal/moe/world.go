package moe

import (
	"context"
	"errors"
	"fmt"
	"strings"
	stdsync "sync"
	"sync/atomic"
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

	// Resource governance: the planned worker split across live streams.
	// Each rank's compute stream owns a scoped tensor pool of
	// computeWorkers workers and runs on an OS-thread-pinned goroutine;
	// the communication streams run their copies inline, so commWorkers is
	// only the binding they report.
	computeWorkers int
	commWorkers    int
	computePools   []*tensor.Pool

	// Stream names, built once beside the pools: per rank compute:<r>, per
	// expert-sharding group intra:g<G>.
	computeStreams, groupStreams []string

	// ws is the idle token-path workspace (workspace.go): nil until the
	// first backward hands one back and while a forward cache holds it.
	ws *workspace

	seq      bool // execute plans sequentially (no-overlap baseline)
	sync     BackwardSyncer
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
	// GradElems layout: gradOff[0] is the dense (gate) prefix length and
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

// BackwardSyncer receives inter-stream emit points while a backward plan
// is under construction — the executable seam for §5's Gradient-AllReduce
// overlap. BeginLayer announces how many points the plan will offer;
// EmitAt may then append tasks to the plan on the shared inter stream at
// each point. Every strategy offers point 0 in the slack before its first
// outbound gradient collective and point c ≥ 1 after the c-th one, so
// emitted tasks contend with the layer's own inter-node chunks exactly as
// §5 budgets for (under ESP the inter stream carries no AlltoAll at all,
// so the slices overlap the intra-stream AllGather/ReduceScatter freely —
// the §4 inter/intra co-scheduling).
type BackwardSyncer interface {
	BeginLayer(points int)
	EmitAt(p *runtime.Plan, stream string, point int)
}

// WorldConfig configures multi-rank execution.
type WorldConfig struct {
	Ranks       int          // R; the layer's experts are sharded E/R per rank
	ChunksFwd   int          // forward pipeline degree r (<1 means 1)
	ChunksBwd   int          // backward pipeline degree (<1 means ChunksFwd)
	Algo        comm.A2AAlgo // AlltoAll algorithm (default Direct)
	GPUsPerNode int          // node shape for 1DH/2DH and Stats (default Ranks)
	Strategy    Strategy     // parallel scheme (default StrategyEP)
	// GroupSize is the expert-sharding group width g for StrategyHybrid:
	// the R ranks split into R/g dispatch groups of g sharding members.
	// Required (in [1, Ranks], dividing Ranks) when Strategy is
	// StrategyHybrid; ignored by every other strategy.
	GroupSize int

	// Sink, when non-nil, receives one telemetry.StepMetrics per completed
	// training step (Step/StepWorlds). With a nil Sink no metrics are
	// built — the step hot path sees a single nil check and zero
	// additional allocations. When a stack's worlds carry distinct sinks,
	// each distinct sink receives the step's record once.
	Sink telemetry.Sink
}

func (c WorldConfig) withDefaults() WorldConfig {
	if c.ChunksFwd < 1 {
		c.ChunksFwd = 1
	}
	if c.ChunksBwd < 1 {
		c.ChunksBwd = c.ChunksFwd
	}
	if c.Algo == "" {
		c.Algo = comm.A2ADirect
	}
	if c.GPUsPerNode <= 0 {
		c.GPUsPerNode = c.Ranks
	}
	if c.Strategy == "" {
		c.Strategy = StrategyEP
	}
	return c
}

// NewWorld validates the pairing of a layer, a configuration and a
// parallel strategy. Requirements every strategy shares are checked here;
// strategy-specific ones (expert execution contracts, routing kinds) are
// checked by the strategy itself so the error names the strategy and the
// unsupported combination.
func NewWorld(layer *MOELayer, cfg WorldConfig) (*World, error) {
	if layer == nil {
		return nil, fmt.Errorf("moe: world needs a layer")
	}
	cfg = cfg.withDefaults()
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
	if _, ok := layer.disp.(LocalDispatcher); !ok {
		return nil, fmt.Errorf("moe: world replaces the layer dispatcher with real collectives; custom dispatcher %T would be bypassed", layer.disp)
	}
	if layer.seqExperts {
		return nil, fmt.Errorf("moe: world requires provably distinct expert instances (aliased experts cannot be sharded)")
	}
	pl, err := place(layer, cfg)
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

// planResources decides the worker split across the plan's live streams
// from the machine width at construction time: the R compute streams get
// equal scoped pools, and a small allotment is set aside for the
// communication streams, so nothing fans out onto one global queue (the
// Lina-style compute/comm partition, applied to kernel fan-out). A
// collective is a chain of copies on its stream's own goroutine — the
// pipeline's structural concurrency — so the comm allotment is reserved,
// not pooled. The split is a planned quantity: every executed plan binds it
// to its streams, so the measured trace reports it alongside the intervals.
func (w *World) planResources() {
	avail := tensor.Workers()
	R := w.cfg.Ranks
	w.commWorkers = 1
	if avail >= 4*R && avail >= 8 {
		w.commWorkers = 2
	}
	w.computeWorkers = (avail - w.commWorkers) / R
	if w.computeWorkers < 1 {
		w.computeWorkers = 1
	}
	w.computePools = make([]*tensor.Pool, R)
	for j := range w.computePools {
		w.computePools[j] = tensor.NewPool(w.computeWorkers)
	}
	w.computeStreams = make([]string, R)
	w.groupStreams = make([]string, R/w.pl.g)
	for r := range w.computeStreams {
		w.computeStreams[r] = fmt.Sprintf("compute:%d", r)
	}
	for g := range w.groupStreams {
		w.groupStreams[g] = fmt.Sprintf("intra:g%d", g)
	}
}

// ResourcePlan reports the planned per-stream worker split: workers per
// compute stream and the shared communication allotment.
func (w *World) ResourcePlan() (computeWorkers, commWorkers int) {
	return w.computeWorkers, w.commWorkers
}

// ErrWorldClosed reports use of a closed World: a second Close, or a
// Forward/Backward after Close. Match it with errors.Is.
var ErrWorldClosed = errors.New("moe: world is closed")

// Close releases the scoped pools' worker goroutines and the token-path
// workspace and retires the world: subsequent Forward/Backward/Close calls
// fail with ErrWorldClosed instead of stepping on released pools. The
// world must be idle. Close also waits for the checkpoint commit its stack
// last started and returns that commit's failure (ckpt.ErrCommit), if any.
func (w *World) Close() error {
	if w.closed {
		return fmt.Errorf("moe: double close: %w", ErrWorldClosed)
	}
	w.closed = true
	for _, p := range w.computePools {
		p.Close()
	}
	w.ws = nil
	if m := w.ckpt; m != nil {
		w.ckpt = nil
		return m.Wait()
	}
	return nil
}

// bindStreams records the resource plan on an executable plan: every live
// compute stream is pinned with its scoped worker share; everything else
// (the AlltoAll/AG/RS chains) carries the comm allotment.
func (w *World) bindStreams(p *runtime.Plan) {
	for _, s := range p.Streams() {
		if strings.HasPrefix(s, "compute:") {
			p.BindStream(s, runtime.Binding{Workers: w.computeWorkers, PinOS: true})
		} else {
			p.BindStream(s, runtime.Binding{Workers: w.commWorkers})
		}
	}
}

// Ranks returns R and Chunked whether the expert stages run chunk by chunk:
// false when the layer holds an adapted plain Expert, whose compute is one
// range per pass (the communication is still chunked).
func (w *World) Ranks() int    { return w.cfg.Ranks }
func (w *World) Chunked() bool { return w.layer.plain < 0 }

// Strategy returns the parallel scheme in effect.
func (w *World) Strategy() Strategy { return w.cfg.Strategy }

// Degrees returns the configured forward and backward pipeline degrees.
func (w *World) Degrees() (fwd, bwd int) { return w.cfg.ChunksFwd, w.cfg.ChunksBwd }

// Sink returns the configured per-step telemetry sink (nil when telemetry
// is disabled).
func (w *World) Sink() telemetry.Sink { return w.cfg.Sink }

// Steps returns the number of completed training steps on this world.
func (w *World) Steps() int { return w.steps }

// GroupSize returns the hybrid EP-group size in effect (0 unless the
// strategy is StrategyHybrid).
func (w *World) GroupSize() int {
	if w.cfg.Strategy != StrategyHybrid {
		return 0
	}
	return w.cfg.GroupSize
}

// SetSequential switches plan execution to the single-goroutine,
// no-overlap baseline (true) or the pipelined stream executor (false).
// Results are identical either way; only the wall-clock differs.
func (w *World) SetSequential(seq bool) { w.seq = seq }

// Stats returns the cumulative collective traffic of every pass so far.
func (w *World) Stats() comm.Stats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.stats
}

// LastPlan and LastTrace return the stream plan and measured trace of the
// most recent pass — LastPlan.SimulateWith(runtime.Durations(LastTrace()))
// predicts the pipelined makespan from sequential measurements. Both are
// nil after a pass that ran entirely on the degraded sequential path (no
// stream plan exists for it).
func (w *World) LastPlan() *runtime.Plan { return w.lastPlan }
func (w *World) LastTrace() *sim.Trace   { return w.lastTr }

// SetFaultPlan installs (or, with nil, removes) a seeded fault injector.
// It is threaded into every subsequently executed plan and, through
// per-collective guards, into the comm collectives themselves. Takes
// effect from the next Forward.
func (w *World) SetFaultPlan(fp *fault.Plan) { w.faults = fp }

// SetRetry replaces the default transient-retry policy (4 attempts with
// exponential backoff, collective kinds only).
func (w *World) SetRetry(rp runtime.RetryPolicy) { w.retry = rp }

// SetDeadline bounds each subsequent plan execution: a pass whose plan
// exceeds d is cooperatively canceled and fails with context.DeadlineExceeded
// inside the joined error. Zero removes the deadline.
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
// (recover.go), so tooling can treat the two transitions uniformly.
func (w *World) ResetHealth() {
	w.down = -1
	w.degraded = nil
	w.lastPlan = nil
	w.lastTr = nil
}

// LastDegraded returns the degraded-mode report of the most recent pass,
// or nil if the pass ran at full strength.
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
	experts    [][]ExpertPass // [rank][expert of its group] the passes BuildForward began
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

// verifyPlans gates runtime.Plan.Verify on every plan the World builds: a
// debug flag (off by default — Verify walks the whole task table) tests
// and the benchmarks turn on to catch malformed schedules at construction
// instead of mid-execution.
var verifyPlans atomic.Bool

// SetVerifyPlans toggles static verification of every constructed plan
// before it executes (process-wide).
func SetVerifyPlans(on bool) { verifyPlans.Store(on) }

// run executes a plan under the current mode — threading the fault
// injector, retry policy and deadline in — records it, and returns the
// joined task errors.
func (w *World) run(p *runtime.Plan) error {
	if verifyPlans.Load() {
		if err := p.Verify(); err != nil {
			return fmt.Errorf("moe: plan verification failed: %w", err)
		}
	}
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

// Forward runs the pipelined multi-rank forward pass. Results are
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
	w.BuildForward(p, cache, cache.scattered, combined)
	w.bindStreams(p)
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
	w.BuildBackward(p, cache, dpad, dScattered)
	w.bindStreams(p)
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

// GradElems returns the layer's flattened gradient length and the length
// of its leading dense (gate) prefix — the same dense/MoE split the §5
// simulator models with LayerSpec volumes. The flat layout is gate
// parameters in Params() order followed by each expert's parameters in
// expert-index order, matching MOELayer.Params.
func (w *World) GradElems() (total, dense int) {
	return w.gradOff[len(w.gradOff)-1], w.gradOff[0]
}

// countGradElems walks the parameter list once for GradElems and RankGrads;
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

// RankGrads writes the per-rank partial parameter gradients of the most
// recent backward pass into out[r] (one buffer of GradElems' total length
// per rank, whatever it held before; the ranks fill concurrently): rank j
// contributes the full gradient of its own expert shard (experts [j·Eg, (j+1)·Eg))
// and a disjoint element shard of the dense (gate) gradient, zeros
// elsewhere. Every element therefore has exactly one non-zero
// contributor, so a Ring-AllReduce sum reconstructs the full-batch
// gradient bit-exactly on every rank — adding zeros never rounds. (The
// in-process ranks share one replicated gate computation, so the dense
// shard models each data-parallel rank's disjoint contribution without
// recomputing the gate backward R times; the AllReduce volume and the
// synchronized values are exactly those of the real replication. Every
// strategy accumulates an expert's parameter gradients on its owner rank
// j = e/Eg — EP computes them there, ESP designates that shard-group
// member — so the one-contributor invariant holds for all of them.)
func (w *World) RankGrads(out [][]float64) { w.rankGrads(out, nil) }

// rankGrads is RankGrads for a backward that wrote the gradients of the
// experts written says (nil: none) straight into their owners' buffers:
// those spans stay, and an expert no finish routine ran for — a dead
// rank's, a degraded pass's — is cleared of last step's replica.
func (w *World) rankGrads(out [][]float64, written []bool) {
	R := w.cfg.Ranks
	gate := w.layer.cfg.Gate.Params()
	tensor.ParallelFor(R, func(r int) {
		// Outside rank r's own expert shard everything reads zero but its
		// shard of the gate gradient.
		buf := out[r]
		clear(buf[:w.gradOff[r*w.egrp]])
		clear(buf[w.gradOff[(r+1)*w.egrp]:])
		off := 0
		for _, p := range gate {
			g := p.G.Data()
			if shards := comm.SplitFlat(len(g), R); r < len(shards) {
				rr := shards[r]
				copy(buf[off+rr.Lo:off+rr.Hi], g[rr.Lo:rr.Hi])
			}
			off += len(g)
		}
		for e := r * w.egrp; e < (r+1)*w.egrp; e++ {
			span := buf[w.gradOff[e]:w.gradOff[e+1]]
			if written == nil {
				for _, p := range w.layer.cfg.Experts[e].Params() {
					span = span[copy(span, p.G.Data()):]
				}
			} else if !written[e] {
				clear(span)
			}
		}
	})
}
