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
// (stack.go), found by identity: the solved §5 byte plan and two flat
// buffers for the whole stack, one of parameters and one of gradients, in
// one layout. Every Param.W is a view of the first and every Param.G of the
// second, so the backward pass writes the gradient where the §5 slices read
// it and a slice steps the live parameters with one row operation. A checkpoint commits
// the live parameter buffer by reference, so the step after one writes its
// update into a spare buffer instead, which then becomes the live one.

import (
	"errors"
	"fmt"
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

	ChunkBytes float64 // Lina fixed-chunk size (default core.LinaChunkBytes, 30 MB)
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
	// snapshot's header and metadata and leaves the commit running behind
	// the next steps, reading the live parameters (ckpt.Manager.Start).
	// The commit belongs to the stack: its next step writes its update into
	// a spare buffer meanwhile, and RestoreWorlds, RecoverWorlds, a new cut
	// and each World's Close wait for it. Write no Param.W by hand until the
	// manager's Wait returns. A failed commit fails the next checkpointing
	// step with ckpt.ErrCommit, and each World's Close. A nil Checkpoint
	// adds nothing to the step path.
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
	// the exposed tail, which hold the SGD update, the gates' backward and,
	// for sparse plans at R > 1, the Order's layout, fused into the token
	// exchanges; the rest (the gates' Route, the Order's Gather, the
	// slot-weight gradient's dot products, clearing the gates' gradients,
	// the checkpoint's wait and capture — and at R = 1 or for a dense plan
	// the Order's Scatter and GatherGrad) is WallMS minus the three.
	WallMS     float64
	ForwardMS  float64 // summed measured forward-plan makespans
	BackwardMS float64 // summed measured backward-plan makespans (incl. hidden AllReduce)
	TailMS     float64 // measured exposed Gradient-AllReduce tail

	// Report is the §5 synchronization summary. Report.Gar is the stack's
	// resident byte plan, shared by every step solved for the same
	// configuration and shapes: read-only.
	Report gradsync.Report

	// RankParams holds one row, the post-step parameters: the stack's flat
	// parameter buffer itself, of which every live Param.W is a view. Each
	// layer's parameters are flat in Params order (gate, then each
	// expert's), layers concatenated in stack order; the row is bit-identical
	// under every strategy. It is not a copy: the next StepWorlds or
	// SyncWorlds on the same worlds overwrites it, so copy what must outlive
	// the step.
	RankParams [][]float64

	// Plans and Traces hold each layer's backward stream plan and measured
	// trace in backward (reverse stack) order; the AllReduce slices appear
	// as "AllReduce"-kind tasks on the inter stream. A layer whose pass ran
	// degraded (see Degraded) contributes its aborted backward plan, when
	// the rank was lost there, and nothing otherwise: the degraded passes
	// run on the layer's own World, and the world keeps no trace of them.
	// They are the worlds' resident plans and each plan's one trace, not
	// copies: valid until the world's next pass.
	Plans  []*runtime.Plan
	Traces []*sim.Trace

	// Degraded reports every layer pass that survived a permanent rank
	// failure this step (empty when the step ran at full strength). The
	// step still completes, on each such layer's own one-rank World, with
	// the dead experts' parameters and the router frozen (+0 gradient).
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

// StepWorlds runs one training step over a stack of Worlds (layer i's
// output feeds layer i+1): forward through the stack, backward in
// reverse with the §5 gradient sync overlapped into each layer's
// backward plan per the strategy, and the exposed tail; every sync slice
// applies the SGD update to its elements. The stack's resident schedule
// (gradsync.Plan) says which slices each layer's plan runs — gradients of
// later layers, whose backward already finished, exactly the backward-order
// greedy fill of §5.2; layer 0's own gradients, any unhidden remainder and
// any slice a plan did not run are the tail.
//
// Param.G ends the step holding the step's gradient — each expert's
// overwritten by its finish routine, zero for a dead rank's, the gate's
// cleared and accumulated — and Param.W the stepped parameters. A step that
// returns an error may already have stepped the parameters of the layers
// whose backward completed (the first step after a checkpoint steps none:
// its update writes the spare buffer, which only a completed step makes
// live); every forward cache it still held is released, so the next step
// replays each world's workspace and plans.
func StepWorlds(worlds []*World, x, dy *tensor.Tensor, cfg StepConfig) (*StepResult, error) {
	t0 := time.Now()
	cfg = cfg.withDefaults()
	st, err := stackFor("step", worlds, false)
	if err != nil {
		return nil, err
	}
	if err := checkUnaliased(worlds, x, dy); err != nil {
		return nil, err
	}
	for i, w := range worlds {
		clear(st.layerGrads(i)[:w.gradOff[0]]) // the gate's backward accumulates
	}
	done := false
	defer func() {
		for i, w := range worlds {
			if c := st.caches[i]; c != nil && !done {
				w.drop(c)
			}
		}
		clear(st.caches)
	}()

	res := &StepResult{}

	// Telemetry is pay-for-use: with no sink configured anywhere on the
	// stack, sinks is nil and every metrics branch below is a single nil
	// check — no traces retained, no metrics built, no allocations added.
	sinks := st.sinks
	var fwdTraces []*sim.Trace

	// Forward chain. Every output, the stack's last included, stays in the
	// producing world's workspace.
	caches := st.caches
	cur := x
	for i, w := range worlds {
		y, cache, err := w.forward(cur, cfg.Train, call{owned: true, seq: cfg.Sequential})
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

	// Register every layer with live volumes (the padded capacity each
	// forward actually dispatched) and its backward plan's emit points. The
	// schedule is solved only when these inputs differ from the ones the
	// resident plan was solved for — another batch capacity, another
	// StepConfig, a recovery to R′.
	for i, w := range worlds {
		st.specs[i] = gradsync.LayerSpec{Elems: w.gradElems(), Points: w.syncPoints(caches[i]), V: stepVolumes(w, caches[i].tpad)}
	}
	st.plan, err = st.plan.For(syncConfig(cfg), st.specs)
	if err != nil {
		return nil, err
	}
	st.lr, st.target = cfg.LR, st.updateTarget()
	st.plan.Begin(st.update)

	// Backward chain in reverse, each layer's plan running the slices the
	// schedule hides in it; every expert's gradient lands in the gradient
	// buffer as the plan's finish tasks run.
	dcur := dy
	for i := len(worlds) - 1; i >= 0; i-- {
		w := worlds[i]
		dx, err := w.backward(caches[i], dcur, call{owned: true, seq: cfg.Sequential, step: true, sched: st.plan, layer: i})
		if err != nil {
			return nil, fmt.Errorf("moe: step backward layer %d: %w", i, err)
		}
		if tr := w.LastTrace(); tr != nil {
			res.BackwardMS += tr.Makespan
			res.Plans = append(res.Plans, w.LastPlan())
			res.Traces = append(res.Traces, tr)
		}
		if deg := w.LastDegraded(); deg != nil {
			// RecoveryMS spans the whole degraded pass (its forward
			// included); charge it to the backward total once.
			res.BackwardMS += deg.RecoveryMS
			res.Degraded = append(res.Degraded, deg)
		}
		dcur = dx
	}
	res.DX = dcur

	res.Report = st.plan.Finish()
	if st.pinned {
		st.swap()
	}
	res.TailMS = res.Report.TailMS
	res.RankParams = [][]float64{st.params}
	step := worlds[0].steps
	for _, w := range worlds {
		w.steps++
	}
	// Recovery reports accumulated since the previous completed step (the
	// stack recovered between steps) drain into this step's telemetry;
	// drained unconditionally so they never pile up sink-less.
	recovs := st.recov
	st.recov = nil
	var ckptWaitMS, ckptCaptureMS float64
	if m := cfg.Checkpoint; m != nil && (step+1)%max(cfg.CheckpointEvery, 1) == 0 {
		// What the previous commit still has to do after a whole step is
		// the stall; its failure, if any, is Start's to report. A commit
		// another manager started may still read the retired buffer, which
		// the next step writes: it is waited for too, and its failure
		// fails this step.
		t1 := time.Now()
		var prevErr error
		if p := st.commit; p != nil && p != m {
			prevErr, st.commit = p.Wait(), nil
		}
		_ = m.Wait()
		t2 := time.Now()
		if prevErr != nil {
			return nil, fmt.Errorf("moe: step checkpoint: %w", prevErr)
		}
		path, err := m.Start(snapshotWorlds(worlds, true))
		if err != nil {
			return nil, fmt.Errorf("moe: step checkpoint: %w", err)
		}
		ckptWaitMS, ckptCaptureMS = float64(t2.Sub(t1))/1e6, float64(time.Since(t2))/1e6
		st.pinned, st.commit = true, m
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
	done = true
	return res, nil
}

// syncConfig is the §5 sync configuration of a stack stepped under cfg.
func syncConfig(cfg StepConfig) gradsync.Config {
	return gradsync.Config{Strategy: cfg.Strategy, Models: plannerModels, ChunkBytes: cfg.ChunkBytes,
		Slices: cfg.Slices, ElemBytes: gradElemBytes}
}

// ErrStepInputAliased reports a step input that shares memory with a
// stack-owned output of an earlier step (StepResult.Y or DX): the step would
// overwrite it while reading it. Pass a copy. Match it with errors.Is.
var ErrStepInputAliased = errors.New("moe: step input shares memory with a stack-owned step output")

// checkUnaliased rejects an x or dy in memory the step overwrites: a slot of
// a stack world's idle workspace, or of its layer's own World's, where the
// last step left its output and input gradient (the latter after a degraded
// pass).
func checkUnaliased(worlds []*World, x, dy *tensor.Tensor) error {
	for _, w := range worlds {
		for _, v := range []*World{w, w.layer.w} {
			if v == nil || v.ws == nil {
				continue
			}
			if v.ws.holds(x) {
				return fmt.Errorf("moe: step x: %w", ErrStepInputAliased)
			}
			if v.ws.holds(dy) {
				return fmt.Errorf("moe: step dy: %w", ErrStepInputAliased)
			}
		}
	}
	return nil
}

// buildStepMetrics assembles the step's structured record from quantities
// the step already measured: the forward and backward traces (serial time,
// per-stream busy time, fault/retry incidents), each layer's routing plan
// (the FlexMoE per-expert load signal; a degraded layer's is the plan its
// degraded pass ran, re-routed and dropped assignments counted) and the §5
// sync report. Called only
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
	// slices are views of the stack's gradient buffer, of which every
	// Param.G is a view too: the next SyncWorlds or StepWorlds on the same
	// worlds overwrites them, so copy what must outlive the call.
	LayerGrads [][]float64
}

// SyncWorlds synchronizes the stack's accumulated parameter gradients
// right now, with no pipeline to hide in — the blocking entry point for
// callers that drove Forward/Backward themselves. Every Param.G is a view of
// the stack's one gradient buffer (the first call on a stack moves them
// there), so the buffer already holds the full-batch gradient and is
// synchronized in place, with no update; StepWorlds overlaps the sync
// instead.
func SyncWorlds(worlds []*World, cfg StepConfig) (*SyncReport, error) {
	cfg = cfg.withDefaults()
	st, err := stackFor("sync", worlds, true)
	if err != nil {
		return nil, err
	}
	for i, w := range worlds {
		// No forward cache here; account A2A volumes at the nominal padded
		// capacity of zero — only GradBytes matters for a tail-only sync.
		st.specs[i] = gradsync.LayerSpec{Elems: w.gradElems(), Points: 1, V: stepVolumes(w, 0)}
	}
	cfg.Strategy = gradsync.StrategyNoOverlap
	plan, err := gradsync.Solve(syncConfig(cfg), st.specs)
	if err != nil {
		return nil, err
	}
	grads := make([][]float64, len(worlds))
	for i := range worlds {
		grads[i] = st.layerGrads(i)
	}
	plan.Begin(nil)
	return &SyncReport{Report: plan.Finish(), LayerGrads: grads}, nil
}
