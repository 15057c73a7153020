package moe

// This file is the executable counterpart of the paper's §5 training
// step: backward through a stack of multi-rank MoE layers with the
// gradient sync adaptively partitioned into the backward pipelines'
// inter-stream slack (internal/gradsync), and the SGD update riding that
// sync. Each flat gradient element has one contributor, and the parameters
// live once: one copy, stepped in place. Each slice steps its elements once,
// so the post-step parameters are bit-identical under every strategy.
//
// What is identical from one step to the next is resident on the stack
// (resident, below): the solved §5 byte plan and one flat buffer for the
// whole stack, which is, in turn, the step's gradient (an expert's written
// there by the backward pass itself) and the post-step parameters.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"time"

	"repro/internal/ckpt"
	"repro/internal/gradsync"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// StepConfig configures one overlapped training step over a stack of
// Worlds. Its §5 partition plans on the planner's cost model (planner.go).
type StepConfig struct {
	LR       float64           // SGD learning rate (0 still validates the sync path)
	Strategy gradsync.Strategy // default StrategyFSMoE

	// Train enables training-only gate behaviour in the forward pass
	// (e.g. GShard's noisy gating). Strategy comparisons on separately
	// built stacks should leave it false: gate-internal RNG state would
	// otherwise make the routing — and so the step — run-dependent.
	Train bool

	ChunkBytes float64 // Lina fixed-chunk size (default 30 MiB)
	Slices     int     // AllReduce slices per hidden window (default 4)

	// Sequential executes every stream plan on one goroutine (the
	// no-overlap measurement baseline whose per-task durations feed
	// Plan.SimulateWith predictions). Strategies still place their
	// AllReduce slices identically; only the executor changes.
	Sequential bool

	// Checkpoint, when non-nil, snapshots the whole stack after every
	// CheckpointEvery-th completed step (default: every step) through the
	// manager's atomic, checksummed writer — the state elastic recovery
	// rolls back to after a permanent rank loss. The step encodes the
	// snapshot and leaves the commit running behind the next steps
	// (ckpt.Manager.Start); a failed commit fails the next checkpointing
	// step with ckpt.ErrCommit. A nil Checkpoint adds nothing to the step
	// path.
	Checkpoint      *ckpt.Manager
	CheckpointEvery int
}

func (c StepConfig) withDefaults() StepConfig {
	if c.Strategy == "" {
		c.Strategy = gradsync.StrategyFSMoE
	}
	return c
}

// StepResult is one measured training step.
type StepResult struct {
	// WallMS is the step's full measured wall time, from entry into
	// StepWorlds to the end of the exposed tail and any checkpoint capture
	// — everything but the telemetry emission itself. ForwardMS, BackwardMS
	// and TailMS are the parts of it spent inside measured stream plans and
	// the exposed tail, which hold the SGD update; the rest (gate and order
	// work, writing the gate's shards, the checkpoint's wait and capture) is
	// WallMS minus the three.
	WallMS     float64
	ForwardMS  float64 // summed measured forward-plan makespans
	BackwardMS float64 // summed measured backward-plan makespans (incl. hidden AllReduce)
	TailMS     float64 // measured exposed Gradient-AllReduce tail

	// Report is the §5 synchronization summary. Report.Gar is the stack's
	// resident byte plan, shared by every step solved for the same
	// configuration and shapes: read-only.
	Report gradsync.Report

	// RankParams holds one row, the post-step parameters: one copy, stepped
	// in place. Each layer's parameters are flat in Params order (gate, then
	// each expert's), layers concatenated in stack order; the row equals the
	// live Param.W values, bit for bit, under every strategy. It is the
	// stack's resident buffer, not a copy: the next StepWorlds or SyncWorlds
	// on the same worlds overwrites it, so copy what must outlive the step.
	RankParams [][]float64

	// Plans and Traces hold each layer's backward stream plan and measured
	// trace in backward (reverse stack) order; the AllReduce slices appear
	// as "AllReduce"-kind tasks on the inter stream. Layers that completed
	// on the degraded path contribute no plan/trace (their entries are
	// skipped — see Degraded).
	Plans  []*runtime.Plan
	Traces []*sim.Trace

	// Degraded reports every layer pass that survived a permanent rank
	// failure this step (empty when the step ran at full strength). The
	// step still completes, with the dead experts' parameters frozen (zero
	// gradient).
	Degraded []*DegradedResult

	// Y is the last layer's output and DX the input gradient of layer 0.
	// Like RankParams they are stack-owned, not copies: slots of the last
	// and the first world's workspace, which the next StepWorlds on the
	// same worlds overwrites, so copy what must outlive the step. Feeding
	// either straight back in as that step's x or dy fails with
	// ErrStepInputAliased.
	Y  *tensor.Tensor
	DX *tensor.Tensor

	// CheckpointPath is the file this step's snapshot commits to, set on
	// exactly the steps that hit StepConfig.Checkpoint's cadence. The
	// commit finishes in the background: the file is durable once the
	// manager's next Start or a Wait has returned without error, or the
	// stack's worlds are closed.
	CheckpointPath string

	// Metrics is the step's structured telemetry record, built — and
	// emitted to every distinct configured sink — only when at least one
	// world in the stack has a WorldConfig.Sink; nil otherwise, so
	// unconfigured telemetry adds nothing to the step path.
	Metrics *telemetry.StepMetrics
}

// StepMS is the quantity the §5 strategy tables compare: the backward
// plans' makespans plus the exposed tail, the only parts of a step that
// gradient synchronization can lengthen or shorten. It is not the step's
// wall time — that is WallMS, which also holds the forward pass and
// everything that runs outside the measured plans.
func (r *StepResult) StepMS() float64 { return r.BackwardMS + r.TailMS }

// resident is the training state a stack keeps from one step to the next,
// held on the stack's first world: the solved §5 byte plan, reused while
// the sync configuration and layer specs compare equal, and one arena in
// the RankParams layout. Within a step the arena holds the gradients
// (experts' written by the finish tasks, the gate's by rankGrads), then, as
// the §5 slices step them in place, the post-step parameters.
type resident struct {
	plan  *gradsync.Plan
	arena []float64   // [Σ layer gradElems]
	views [][]float64 // views[i]: layer i's span of arena, what Collect registers
	grads []stepGrads // [layer] the expert spans of views as gradient destinations

	// Per-step scratch, sized with the arena.
	prevSeq []bool
	specs   []gradsync.LayerSpec
	caches  []*WorldCache
	params  [][]*Param // [layer] the live parameters in flat order
	lr      float64
}

// stepGrads is one layer's expert-gradient bookkeeping during a training
// step: where each expert's finish routine writes, and whether it did.
type stepGrads struct {
	off     []int     // the gradOff the destinations were cut for
	into    []GradDst // [expert] parameter-shaped views of the expert's span of the arena
	written []bool    // [expert] this step's backward wrote the span
}

// residentFor returns the stack's resident state with the arena cut for the
// stack as it is now: it is reallocated whenever a layer's gradient layout
// differs from what it was cut for (another stack sharing the first world),
// never assumed.
func residentFor(worlds []*World) *resident {
	w0 := worlds[0]
	if w0.resident == nil {
		w0.resident = &resident{}
	}
	st := w0.resident
	fits := len(st.views) == len(worlds)
	total := 0
	for i, w := range worlds {
		fits = fits && slices.Equal(st.grads[i].off, w.gradOff)
		total += w.gradElems()
	}
	if fits {
		return st
	}
	L := len(worlds)
	*st = resident{
		plan: st.plan, arena: make([]float64, total), views: make([][]float64, L), grads: make([]stepGrads, L),
		prevSeq: make([]bool, L), specs: make([]gradsync.LayerSpec, L), caches: make([]*WorldCache, L), params: make([][]*Param, L),
	}
	off := 0
	for i, w := range worlds {
		n := w.gradElems()
		st.views[i] = st.arena[off : off+n : off+n]
		off += n
		experts := w.layer.cfg.Experts
		g := stepGrads{off: slices.Clone(w.gradOff), into: make([]GradDst, len(experts)), written: make([]bool, len(experts))}
		for e, ex := range experts {
			span := st.views[i][w.gradOff[e]:w.gradOff[e+1]]
			for _, p := range ex.Params() {
				k := len(p.G.Data())
				g.into[e] = append(g.into[e], tensor.FromData(span[:k:k], p.G.Shape()...))
				span = span[k:]
			}
		}
		st.grads[i] = g
	}
	return st
}

// update is the SGD step a §5 slice applies to elements [lo, hi) of layer's
// gradient: w − lr·g replaces the gradient in the arena and, in the same
// pass, the live parameter. Every element of every layer comes by exactly
// once per step.
func (st *resident) update(layer, lo, hi int) {
	g := st.views[layer]
	off := 0
	for _, p := range st.params[layer] {
		wd := p.W.Data()
		if a, b := max(lo, off), min(hi, off+len(wd)); a < b {
			tensor.StepRow(wd[a-off:b-off], g[a:b], st.lr)
		}
		off += len(wd)
	}
}

// StepWorlds runs one training step over a stack of Worlds (layer i's
// output feeds layer i+1): forward through the stack, backward in
// reverse with the §5 gradient sync overlapped into each layer's
// backward plan per the strategy, and the exposed tail; every sync slice
// applies the SGD update to what it gathers. Gradients of layers
// whose backward already finished are the pending pool each earlier
// layer's plan may hide, exactly the backward-order greedy fill of §5.2;
// layer 0's own gradients (and any unhidden remainder) are the tail.
//
// Expert parameter gradients of the step go to the resident arena, not to
// Param.G, which StepWorlds neither clears nor writes for experts (it does
// both for the gate's). A step that returns an error may already have
// stepped the parameters of the layers whose backward completed.
func StepWorlds(worlds []*World, x, dy *tensor.Tensor, cfg StepConfig) (*StepResult, error) {
	t0 := time.Now()
	cfg = cfg.withDefaults()
	if err := checkStack("step", worlds); err != nil {
		return nil, err
	}
	if err := checkUnaliased(worlds, x, dy); err != nil {
		return nil, err
	}
	st := residentFor(worlds)
	// The executor mode is scoped to this step; restore whatever the
	// caller had configured on the worlds afterwards.
	for i, w := range worlds {
		st.prevSeq[i] = w.seq
		zeroGrads(w.layer.cfg.Gate.Params())
		w.SetSequential(cfg.Sequential)
	}
	defer func() {
		for i, w := range worlds {
			w.SetSequential(st.prevSeq[i])
		}
		clear(st.caches)
	}()

	res := &StepResult{}

	// Telemetry is pay-for-use: with no sink configured anywhere on the
	// stack, sinks is nil and every metrics branch below is a single nil
	// check — no traces retained, no metrics built, no allocations added.
	sinks := stepSinks(worlds)
	var fwdTraces []*sim.Trace

	// Forward chain. Every output, the stack's last included, stays in the
	// producing world's workspace.
	caches := st.caches
	cur := x
	for i, w := range worlds {
		y, cache, err := w.forward(cur, cfg.Train, true)
		if err != nil {
			return nil, fmt.Errorf("moe: step forward layer %d: %w", i, err)
		}
		caches[i] = cache
		if tr := w.LastTrace(); tr != nil {
			res.ForwardMS += tr.Makespan
			if sinks != nil {
				fwdTraces = append(fwdTraces, tr)
			}
		}
		cur = y
	}
	res.Y = cur

	// Register every layer with the syncer using live volumes (the padded
	// capacity each forward actually dispatched). The byte plan is solved
	// only when these inputs differ from the ones the resident plan was
	// solved for — another batch capacity, another StepConfig, a recovery
	// to R′.
	for i, w := range worlds {
		st.specs[i] = gradsync.LayerSpec{Elems: w.gradElems(), V: stepVolumes(w, caches[i].tpad)}
		st.params[i] = w.layer.appendParams(st.params[i][:0])
	}
	var err error
	st.plan, err = st.plan.For(syncConfig(cfg), st.specs)
	if err != nil {
		return nil, err
	}
	st.lr = cfg.LR
	syncer := st.plan.NewSyncer(st.update)

	// Backward chain in reverse, overlapping the pending pool into each
	// layer's plan — the expert gradients land in the arena as the plan's
	// finish tasks run — then filling in the rest of the layer's span.
	dcur := dy
	for i := len(worlds) - 1; i >= 0; i-- {
		w := worlds[i]
		syncer.StartLayer(i)
		clear(st.grads[i].written)
		w.sync, w.grads = syncer, &st.grads[i]
		dx, err := w.backward(caches[i], dcur, true)
		w.sync, w.grads = nil, nil
		if err != nil {
			return nil, fmt.Errorf("moe: step backward layer %d: %w", i, err)
		}
		if tr := w.LastTrace(); tr != nil {
			res.BackwardMS += tr.Makespan
			res.Plans = append(res.Plans, w.LastPlan())
			res.Traces = append(res.Traces, tr)
		}
		if deg := w.LastDegraded(); deg != nil {
			// RecoveryMS spans the whole degraded pass (forward fallback
			// included); charge it to the backward total once.
			res.BackwardMS += deg.RecoveryMS
			res.Degraded = append(res.Degraded, deg)
		}
		w.rankGrads(st.views[i], st.grads[i].written)
		if err := syncer.Collect(i, st.views[i]); err != nil {
			return nil, err
		}
		dcur = dx
	}
	res.DX = dcur

	rep, err := syncer.Finish()
	if err != nil {
		return nil, err
	}
	res.Report = rep
	res.TailMS = rep.TailMS
	res.RankParams = [][]float64{st.arena}
	step := worlds[0].steps
	for _, w := range worlds {
		w.steps++
	}
	// Recovery reports accumulated since the previous completed step (the
	// stack recovered between steps) drain into this step's telemetry;
	// drained unconditionally so they never pile up sink-less.
	var recovs []*RecoveryReport
	for _, w := range worlds {
		recovs = append(recovs, w.drainRecoveries()...)
	}
	var ckptWaitMS, ckptCaptureMS float64
	if m := cfg.Checkpoint; m != nil && (step+1)%max(cfg.CheckpointEvery, 1) == 0 {
		// What the previous commit still has to do after a whole step is
		// the stall; its failure, if any, is Start's to report.
		t1 := time.Now()
		_ = m.Wait()
		t2 := time.Now()
		path, err := m.Start(snapshotWorlds(worlds, true))
		if err != nil {
			return nil, fmt.Errorf("moe: step checkpoint: %w", err)
		}
		ckptWaitMS, ckptCaptureMS = float64(t2.Sub(t1))/1e6, float64(time.Since(t2))/1e6
		for _, w := range worlds {
			w.ckpt = m
		}
		res.CheckpointPath = path
	}
	res.WallMS = float64(time.Since(t0)) / 1e6
	if sinks != nil {
		res.Metrics = buildStepMetrics(worlds, caches, fwdTraces, res, step, recovs)
		res.Metrics.CheckpointWaitMS, res.Metrics.CheckpointCaptureMS = ckptWaitMS, ckptCaptureMS
		for _, s := range sinks {
			s.OnStep(res.Metrics)
		}
	}
	return res, nil
}

// syncConfig is the §5 sync configuration of a stack stepped under cfg.
func syncConfig(cfg StepConfig) gradsync.Config {
	return gradsync.Config{Strategy: cfg.Strategy, Models: plannerModels, ChunkBytes: cfg.ChunkBytes,
		Slices: cfg.Slices, ElemBytes: gradElemBytes}
}

// checkStack validates what op needs of a stack before touching its
// resident state: at least one world, all at one rank count.
func checkStack(op string, worlds []*World) error {
	if len(worlds) == 0 {
		return fmt.Errorf("moe: %s needs at least one world", op)
	}
	for i, w := range worlds {
		if w.cfg.Ranks != worlds[0].cfg.Ranks {
			return fmt.Errorf("moe: world %d has %d ranks, world 0 has %d", i, w.cfg.Ranks, worlds[0].cfg.Ranks)
		}
	}
	return nil
}

// ErrStepInputAliased reports a step input that shares memory with a
// stack-owned output of an earlier step (StepResult.Y or DX): the step would
// overwrite it while reading it. Pass a copy. Match it with errors.Is.
var ErrStepInputAliased = errors.New("moe: step input shares memory with a stack-owned step output")

// checkUnaliased rejects an x or dy in memory the step overwrites: a slot of
// a stack world's idle workspace, where the last step left its output and
// input gradient.
func checkUnaliased(worlds []*World, x, dy *tensor.Tensor) error {
	for _, w := range worlds {
		if w.ws == nil {
			continue
		}
		if w.ws.holds(x) {
			return fmt.Errorf("moe: step x: %w", ErrStepInputAliased)
		}
		if w.ws.holds(dy) {
			return fmt.Errorf("moe: step dy: %w", ErrStepInputAliased)
		}
	}
	return nil
}

// stepSinks collects the distinct non-nil telemetry sinks configured
// across the stack (nil when telemetry is disabled everywhere — the
// common case, which must not allocate).
func stepSinks(worlds []*World) []telemetry.Sink {
	var sinks []telemetry.Sink
	for _, w := range worlds {
		s := w.cfg.Sink
		if s == nil {
			continue
		}
		dup := false
		for _, have := range sinks {
			if sameSink(have, s) {
				dup = true
				break
			}
		}
		if !dup {
			sinks = append(sinks, s)
		}
	}
	return sinks
}

// sameSink reports whether two sinks are the same emission target.
// Interface equality would panic on uncomparable dynamic types (SinkFunc),
// so reference kinds compare by identity instead.
func sameSink(a, b telemetry.Sink) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	switch va.Kind() {
	case reflect.Func, reflect.Pointer, reflect.Map, reflect.Chan, reflect.Slice:
		return va.Pointer() == vb.Pointer()
	}
	return va.Type().Comparable() && a == b
}

// buildStepMetrics assembles the step's structured record from quantities
// the step already measured: the forward and backward traces (serial time,
// per-stream busy time, fault/retry incidents), each layer's routing plan
// (the FlexMoE per-expert load signal) and the §5 sync report. Called only
// when a sink is configured. The routing plans are gate-owned scratch, which
// each layer's Backward has handed back; reading them here is safe because
// the next Route is in the next step.
func buildStepMetrics(worlds []*World, caches []*WorldCache, fwdTraces []*sim.Trace, res *StepResult, step int, recovs []*RecoveryReport) *telemetry.StepMetrics {
	w0 := worlds[0]
	m := &telemetry.StepMetrics{
		Step:      step,
		Ranks:     w0.Ranks(),
		Layers:    len(worlds),
		Strategy:  string(w0.Strategy()),
		GroupSize: w0.GroupSize(),
	}
	m.DegreeFwd, m.DegreeBwd = w0.PipelineDegrees()
	m.WallMS, m.ForwardMS, m.BackwardMS, m.TailMS = res.WallMS, res.ForwardMS, res.BackwardMS, res.TailMS
	for _, tr := range fwdTraces {
		m.AddTrace(tr)
	}
	for _, tr := range res.Traces {
		m.AddTrace(tr)
	}
	for _, c := range caches {
		if c == nil || c.pr == nil || c.pr.plan == nil {
			continue
		}
		m.AddExpertLoad(c.pr.plan.ExpertLoad())
		m.DroppedTokens += c.pr.plan.Dropped
	}
	m.DegradedPasses = len(res.Degraded)
	m.Recoveries = len(recovs)
	for _, r := range recovs {
		m.RecoveryMS += r.RecoveryMS
	}
	m.SyncHiddenBytes = res.Report.HiddenBytes
	m.SyncTailBytes = res.Report.TailBytes
	m.Finalize()
	return m
}

// SyncReport is the outcome of a standalone SyncWorlds call.
type SyncReport struct {
	Report gradsync.Report
	// LayerGrads[i] is layer i's synchronized flat gradient, one copy. The
	// slices are views of the stack's resident buffer: the next SyncWorlds
	// or StepWorlds on the same worlds overwrites them, so copy what must
	// outlive the call.
	LayerGrads [][]float64
}

// SyncWorlds synchronizes the stack's accumulated parameter gradients
// right now, with no pipeline to hide in — the blocking entry point for
// callers that drove Forward/Backward themselves. Param.G is written into
// the stack's one gradient buffer and synchronized with no update, so the
// buffer holds the full-batch gradient; StepWorlds overlaps the sync
// instead.
func SyncWorlds(worlds []*World, cfg StepConfig) (*SyncReport, error) {
	cfg = cfg.withDefaults()
	if err := checkStack("sync", worlds); err != nil {
		return nil, err
	}
	st := residentFor(worlds)
	for i, w := range worlds {
		// No forward cache here; account A2A volumes at the nominal padded
		// capacity of zero — only GradBytes matters for a tail-only sync.
		st.specs[i] = gradsync.LayerSpec{Elems: w.gradElems(), V: stepVolumes(w, 0)}
	}
	cfg.Strategy = gradsync.StrategyNoOverlap
	syncer, err := gradsync.New(syncConfig(cfg), st.specs)
	if err != nil {
		return nil, err
	}
	for i, w := range worlds {
		w.rankGrads(st.views[i], nil)
		if err := syncer.Collect(i, st.views[i]); err != nil {
			return nil, err
		}
	}
	rep, err := syncer.Finish()
	if err != nil {
		return nil, err
	}
	return &SyncReport{Report: rep, LayerGrads: st.views}, nil
}
