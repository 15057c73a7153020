package fsmoe

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/moe"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Executable-runtime vocabulary.
type (
	// WorldCache carries a World forward pass's state to Backward.
	WorldCache = moe.WorldCache
	// StreamPlan is an executable stream schedule (simulate or execute).
	StreamPlan = runtime.Plan
	// Trace is a stream timeline, simulated or measured.
	Trace = sim.Trace
	// A2AKind names an AlltoAll algorithm for the executable world.
	A2AKind = comm.A2AAlgo
	// CommStats is cumulative collective traffic.
	CommStats = comm.Stats
	// Strategy names a parallel execution scheme for the executable world.
	Strategy = moe.Strategy
	// StagedExpert is the one execution contract every strategy drives, and
	// the one StrategyESP and StrategyHybrid require natively: GEMM stages
	// over a hidden-column range and over token rows, so chunks and shard
	// groups split one expert's compute bit-exactly (see moe.StagedExpert).
	// The built-in GPT and Mixtral experts implement it; a plain custom
	// Expert is adapted and computes whole blocks.
	StagedExpert = moe.StagedExpert
	// ExpertPass is one pass of a StagedExpert: its stage methods, each over
	// a window set of the pass's rows.
	ExpertPass = moe.ExpertPass
	// Windows is a window set of rows — Count windows of N rows, Stride rows
	// apart — which the ExpertPass stage methods and WorkerPool's
	// MatMulRowsInto / MatMulT2RowsInto take.
	Windows = tensor.Windows
	// PassBufs is the caller-owned memory StagedExpert.Begin receives.
	PassBufs = moe.PassBufs
	// GradDst is where an expert pass's Finish puts its parameter
	// gradients (ExpertPass.BeginBackward receives it): nil adds to
	// Param.G, otherwise entry i is overwritten with the gradient of
	// Params()[i].
	GradDst = moe.GradDst
	// DenseRouter marks custom gates whose plans route densely
	// (SoftMoE-style); StrategyAuto uses it to pick StrategyDenseSlots.
	DenseRouter = moe.DenseRouter

	// FaultSpec configures the deterministic seeded fault injector:
	// per-task-kind / per-stream transient probabilities, straggler delays,
	// in-collective failures and permanent rank-down events.
	FaultSpec = fault.Spec
	// FaultPlan is a compiled injector; install it with World.SetFaultPlan.
	FaultPlan = fault.Plan
	// FaultDown configures a permanent rank-down event inside a FaultSpec.
	FaultDown = fault.Down
	// RetryPolicy bounds transient-fault retries with exponential backoff
	// and deterministic jitter.
	RetryPolicy = runtime.RetryPolicy
	// DegradedResult reports how a pass survived a permanent rank failure.
	DegradedResult = moe.DegradedResult
	// TraceEvent is one fault/retry/straggler/skip incident on a measured
	// trace (Trace.Events).
	TraceEvent = sim.Event
)

// ErrWorldClosed reports use of a World after Close (errors.Is-matchable).
var ErrWorldClosed = moe.ErrWorldClosed

// NewFaultPlan compiles a FaultSpec into an installable injector. Every
// decision it makes is a pure function of the seed and the task identity,
// so a chaos run is reproducible under any stream interleaving.
func NewFaultPlan(s FaultSpec) *FaultPlan { return fault.New(s) }

// IsTransient and IsPermanent classify (possibly wrapped) injected faults:
// transient failures fire before any buffer mutation and are retried
// bit-safely; permanent ones mark a rank dead.
func IsTransient(err error) bool { return fault.IsTransient(err) }
func IsPermanent(err error) bool { return fault.IsPermanent(err) }

// SetVerifyPlans toggles static verification (runtime.Plan.Verify) of
// every stream plan a World builds, process-wide: with the flag on, a
// malformed schedule — out-of-range or cyclic dependencies, an undeclared
// stream, a non-canonical task kind, a negative estimate — fails fast at
// construction with a named error instead of deadlocking or silently
// mis-aggregating mid-run. Off by default; tests and benchmarks turn it
// on.
func SetVerifyPlans(on bool) { moe.SetVerifyPlans(on) }

// Trace event types recorded on measured traces during fault injection.
const (
	EventFault     = sim.EventFault
	EventRetry     = sim.EventRetry
	EventStraggler = sim.EventStraggler
	EventSkip      = sim.EventSkip
)

// Task kinds as they appear on stream plans — the keys a
// FaultSpec.KindProb targets and a RetryPolicy.Kinds allows.
const (
	KindAlltoAll      = moe.KindA2A
	KindAllGather     = moe.KindAG
	KindReduceScatter = moe.KindRS
	KindExperts       = moe.KindExpert
	KindOthers        = sim.KindOthers
)

// The three AlltoAll algorithms of §3.1's Dispatch sub-module.
const (
	A2ADirect = comm.A2ADirect
	A2A1DH    = comm.A2A1DH
	A2A2DH    = comm.A2A2DH
)

// The parallel strategies of the generalized MoE layer (§4): how one
// layer's work is split across the world's ranks.
const (
	// StrategyAuto (the zero value) picks a strategy from the layer:
	// dense-routing gates get StrategyDenseSlots, and hard-routing layers
	// whose experts all implement StagedExpert run the 2-D Algorithm-1 grid over
	// (group size × pipeline degree) on the testbed's performance models —
	// the grid's g=1 edge is pure EP, its g=Ranks edge pure ESP, and an
	// interior winner selects StrategyHybrid with that GroupSize. Layers
	// holding an adapted plain expert always get StrategyEP.
	StrategyAuto Strategy = ""
	// StrategyEP is pure expert parallelism: experts sharded across ranks,
	// tokens moved by r-chunked dispatch/combine AlltoAll.
	StrategyEP = moe.StrategyEP
	// StrategyESP is expert-sharding parallelism: every rank computes a
	// shard of every expert, with chunked AllGather/ReduceScatter stages
	// on the shared intra stream.
	StrategyESP = moe.StrategyESP
	// StrategyHybrid nests the two: the world splits into Ranks/GroupSize
	// EP groups of GroupSize ESP shard members each. Dispatch/combine
	// AlltoAll runs between groups on the inter stream while each group's
	// AllGather/ReduceScatter stages run on a per-group intra stream, so
	// the group size trades inter-node AlltoAll volume against in-group
	// collective volume. GroupSize=1 degenerates to EP, GroupSize=Ranks
	// to ESP (one plan builder reads the group size as data, so the edges
	// are the pure strategies exactly). Requires every expert to implement
	// StagedExpert.
	StrategyHybrid = moe.StrategyHybrid
	// StrategyDenseSlots runs dense (SoftMoE) plans through the EP
	// pipeline chunked over expert slots instead of token rows.
	StrategyDenseSlots = moe.StrategyDenseSlots
)

// WorldConfig configures multi-rank pipelined execution of a Layer.
//
// Strategy selects the parallel scheme; the zero value is StrategyAuto.
// PipelineDegree selects the number of chunks r each collective chain is
// split into. Zero means automatic: Algorithm 1 (§4.4) runs on the
// testbed's fitted performance models with volumes derived from the
// layer's real shape, BatchTokens and the chosen strategy, separately per
// phase — the chosen degrees are what actually execute, closing the loop
// between the scheduler and the runtime.
type WorldConfig struct {
	Ranks             int      // R; how the layer is sharded depends on Strategy
	PipelineDegree    int      // forward r; 0 = Algorithm 1
	PipelineDegreeBwd int      // backward r; 0 inherits (auto mode optimizes it separately)
	Algo              A2AKind  // AlltoAll algorithm for EP/DenseSlots (default Direct)
	GPUsPerNode       int      // node shape for 1DH/2DH and ring Stats (default Ranks)
	Strategy          Strategy // parallel scheme (default StrategyAuto)

	// GroupSize is the EP-group size for StrategyHybrid: it must divide
	// Ranks, with 1 ≡ pure EP and Ranks ≡ pure ESP. Zero with an explicit
	// StrategyHybrid means automatic: the 2-D Algorithm-1 grid picks the
	// group size over the divisors of Ranks along with the pipeline
	// degrees. Ignored by the other strategies.
	GroupSize int

	// Inputs to StrategyAuto and the automatic pipeline degrees.
	Cluster     *Cluster // testbed whose models drive Algorithm 1 (default TestbedA)
	BatchTokens int      // B·L tokens per iteration (default 4096)

	// Calibration, when non-nil, replaces the testbed models with cost
	// coefficients fitted from this machine's measured stage times (see
	// Calibrate): StrategyAuto and the automatic pipeline degrees then run
	// Algorithm 1 on what was measured instead of on testbed constants,
	// closing the scheduler→runtime loop in both directions. Explicit
	// Strategy/PipelineDegree settings still win.
	Calibration *Calibration

	// Sink, when non-nil, receives one StepMetrics per completed training
	// step (Step/StepStack) and the record is attached to
	// StepResult.Metrics. Nil disables per-step telemetry at zero cost to
	// the step path.
	Sink Sink
}

// World executes a Layer across in-process ranks under a pluggable
// parallel strategy, with chunked collectives pipelined on real streams.
// Forward and Backward are bit-identical to the Layer's single-rank path
// under every strategy.
type World struct {
	inner      *moe.World
	degF, degB core.DegreeResult
	auto       bool
	autoStrat  bool
}

// NewWorld builds the executable multi-rank runtime for a layer.
func NewWorld(l *Layer, cfg WorldConfig) (*World, error) {
	if l == nil {
		return nil, fmt.Errorf("fsmoe: NewWorld needs a layer")
	}
	w := &World{}
	cluster := cfg.Cluster
	if cluster == nil {
		cluster = topology.TestbedA()
	}
	tokens := cfg.BatchTokens
	if tokens <= 0 {
		tokens = 4096
	}
	m := core.ModelsFromCluster(cluster)
	// The volume space Algorithm 1 runs in: testbed-modelled volumes by
	// default; when a Calibration is supplied, its measured models and the
	// matching measured volumes (both in the plan's own estimate units, so
	// they stay consistent with each other).
	volsFor := func(s Strategy) (core.Volumes, bool) { return layerVolumes(l, tokens, s), true }
	hybridFor := func(g int) (core.Volumes, bool) { return hybridLayerVolumes(l, tokens, cfg.Ranks, g), true }
	if cfg.Calibration != nil {
		m = cfg.Calibration.models
		volsFor = cfg.Calibration.volumes
		hybridFor = cfg.Calibration.hybridVolumes
	}

	strat := cfg.Strategy
	groupSize := cfg.GroupSize
	var autoDegF, autoDegB core.DegreeResult
	haveDegrees := false
	if strat == StrategyAuto {
		strat, groupSize, autoDegF, autoDegB, haveDegrees = chooseStrategy(l, m, volsFor, hybridFor, cfg.Ranks)
		w.autoStrat = true
	} else if strat == StrategyHybrid && groupSize == 0 {
		// Explicit hybrid with an unset group size: the 2-D grid picks g
		// (and the per-phase degrees) over every divisor of the rank
		// count — including the degenerate edges, which are the pure
		// strategies' plans.
		groupSize, autoDegF, autoDegB, haveDegrees = hybridGroupPick(m, volsFor, hybridFor, cfg.Ranks)
		if !haveDegrees {
			groupSize = 1
		}
	}
	// The volume set of the configuration actually executing, hybrid
	// group size included.
	stratVols := func() (core.Volumes, bool) {
		if strat == StrategyHybrid {
			return gridVolumes(volsFor, hybridFor, cfg.Ranks, groupSize)
		}
		return volsFor(strat)
	}

	degF, degB := cfg.PipelineDegree, cfg.PipelineDegreeBwd
	if degF == 0 {
		w.auto = true
		if haveDegrees {
			// The strategy (or group-size) comparison already ran
			// Algorithm 1 on the winner's volumes; reuse its per-phase
			// results.
			w.degF, w.degB = autoDegF, autoDegB
		} else if v, ok := stratVols(); ok {
			w.degF = m.FindOptimalPipelineDegree(v, 0, core.Forward, 16)
			w.degB = m.FindOptimalPipelineDegree(v, 0, core.Backward, 16)
		} else {
			// The calibration never swept this strategy; fall back to the
			// testbed models on modelled volumes rather than mixing unit
			// spaces.
			tm := core.ModelsFromCluster(cluster)
			v := layerVolumes(l, tokens, strat)
			if strat == StrategyHybrid {
				v = hybridLayerVolumes(l, tokens, cfg.Ranks, groupSize)
			}
			w.degF = tm.FindOptimalPipelineDegree(v, 0, core.Forward, 16)
			w.degB = tm.FindOptimalPipelineDegree(v, 0, core.Backward, 16)
		}
		if cfg.Calibration != nil {
			// The calibrated closed form proposes; the measured sweep
			// disposes (see Calibration.PickDegree). R is what executes;
			// TMoE/Case keep the model's view of its own proposal.
			w.degF.R = cfg.Calibration.degreePick(strat, groupSize, w.degF.R)
			w.degB.R = cfg.Calibration.degreePick(strat, groupSize, w.degB.R)
		}
		degF = w.degF.R
		// An explicit backward degree overrides Algorithm 1's choice even
		// in auto mode.
		if degB == 0 {
			degB = w.degB.R
		}
	} else if degB == 0 {
		degB = degF
	}
	inner, err := moe.NewWorld(l.inner, moe.WorldConfig{
		Ranks:       cfg.Ranks,
		ChunksFwd:   degF,
		ChunksBwd:   degB,
		Algo:        cfg.Algo,
		GPUsPerNode: cfg.GPUsPerNode,
		Strategy:    strat,
		GroupSize:   groupSize,
		Sink:        cfg.Sink,
	})
	if err != nil {
		return nil, err
	}
	w.inner = inner
	return w, nil
}

// chooseStrategy is StrategyAuto: dense routers shard over slots; hard
// routers holding an adapted plain expert get EP; natively staged layers run the
// 2-D Algorithm-1 grid over (group size × degree), whose g=1 and g=Ranks
// edges carry the pure EP and ESP volume sets — so the old EP-vs-ESP
// comparison is this grid restricted to its edges, and an interior winner
// selects StrategyHybrid with its group size. volsFor/hybridFor supply the
// volume sets — testbed-modelled or calibration-measured; a cell whose
// volumes are unavailable (a calibration that never swept it) is not
// eligible. When the grid ran, the winner's per-phase degree results are
// returned for reuse (haveDegrees true), saving the caller an identical
// pair of searches.
func chooseStrategy(l *Layer, m core.Models, volsFor func(Strategy) (core.Volumes, bool), hybridFor func(int) (core.Volumes, bool), ranks int) (strat Strategy, groupSize int, degF, degB core.DegreeResult, haveDegrees bool) {
	if dr, ok := l.inner.Gate().(moe.DenseRouter); ok && dr.DenseRouting() {
		return StrategyDenseSlots, 0, degF, degB, false
	}
	if _, native := l.inner.Staged(); !native {
		return StrategyEP, 0, degF, degB, false
	}
	g, f, b, ok := hybridGroupPick(m, volsFor, hybridFor, ranks)
	if !ok {
		return StrategyEP, 0, degF, degB, false
	}
	switch g {
	case 1:
		return StrategyEP, 0, f, b, true
	case ranks:
		return StrategyESP, 0, f, b, true
	}
	return StrategyHybrid, g, f, b, true
}

// hybridGroupPick scans the (group size × degree) grid: for each divisor
// g of the rank count it runs Algorithm 1 per phase on that cell's
// volumes, and picks the g minimizing the summed forward+backward
// predicted time — one g must serve both phases, while the degrees stay
// per-phase (§4.4). Cells without volumes are skipped; ok is false when
// none had any.
func hybridGroupPick(m core.Models, volsFor func(Strategy) (core.Volumes, bool), hybridFor func(int) (core.Volumes, bool), ranks int) (groupSize int, degF, degB core.DegreeResult, ok bool) {
	for _, g := range divisors(ranks) {
		v, have := gridVolumes(volsFor, hybridFor, ranks, g)
		if !have {
			continue
		}
		f, b := phaseDegrees(m, v)
		if !ok || f.TMoE+b.TMoE < degF.TMoE+degB.TMoE {
			groupSize, degF, degB, ok = g, f, b, true
		}
	}
	return groupSize, degF, degB, ok
}

// gridVolumes maps a grid cell to its volume set: the degenerate edges
// reuse the pure strategies' volumes, so the grid coincides with the 1-D
// strategy comparison there — exactly as the runtime builds the pure
// strategies' plans at those group sizes.
func gridVolumes(volsFor func(Strategy) (core.Volumes, bool), hybridFor func(int) (core.Volumes, bool), ranks, g int) (core.Volumes, bool) {
	switch g {
	case 1:
		return volsFor(StrategyEP)
	case ranks:
		return volsFor(StrategyESP)
	}
	return hybridFor(g)
}

// divisors returns the divisors of n in ascending order — the candidate
// hybrid group sizes of an n-rank world.
func divisors(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// phaseDegrees runs Algorithm 1 for both phases on one volume set.
func phaseDegrees(m core.Models, v Volumes) (f, b core.DegreeResult) {
	f = m.FindOptimalPipelineDegree(v, 0, core.Forward, 16)
	b = m.FindOptimalPipelineDegree(v, 0, core.Backward, 16)
	return f, b
}

// layerVolumes derives Algorithm-1 scheduling volumes from the real layer
// under one strategy: the strategy decides which collectives carry the
// dispatched activations — EP and DenseSlots move them twice over the
// AlltoAll links, ESP moves them through the AllGather/ReduceScatter
// stages plus the hidden-activation exchange — and expert MACs / gradient
// bytes come from the live expert implementations, so custom experts
// steer the choice through their own FwdMACs/ParamBytes/HiddenWidth.
func layerVolumes(l *Layer, tokens int, strat Strategy) Volumes {
	cfg := l.cfg
	effF := cfg.CapacityFactor
	if effF <= 0 {
		effF = 1.0
	}
	k := cfg.TopK
	if k < 1 {
		k = 1
	}
	experts, _ := l.inner.Staged()
	dispatched := float64(k) * effF * float64(tokens)
	if strat == StrategyDenseSlots {
		// Dense plans dispatch E·slotsPerExpert slot rows, independent of
		// the token count.
		slots := cfg.SlotsPerExpert
		if slots < 1 {
			slots = 1
		}
		dispatched = float64(len(experts) * slots)
	}
	wire := dispatched * float64(cfg.M) * workload.ActivationBytes
	perExpert := int(dispatched) / len(experts)
	if perExpert < 1 {
		perExpert = 1
	}
	macs, gradBytes, hidden := 0.0, 0.0, 0.0
	for _, e := range experts {
		macs += e.FwdMACs(perExpert)
		gradBytes += e.ParamBytes()
		// One Volumes set feeds both phases' degree searches, so the hidden
		// exchange is averaged over the forward and backward band counts
		// (Mixtral exchanges two backward bands; an adapted plain expert
		// exchanges nothing).
		hidden += float64(e.HiddenWidth()) * float64(e.FwdBands()+e.BwdBands()) / 2
	}
	hiddenWire := hidden / float64(len(experts)) * dispatched * workload.ActivationBytes
	gemms := 2
	if cfg.Expert == ExpertMixtral {
		gemms = 3
	}
	v := Volumes{
		ExpMACs:  macs,
		ExpGEMMs: gemms,
		// The dense part is outside the World's pipeline; a nominal floor
		// keeps the volumes valid for full-iteration simulations.
		DenseFwd:  0.1,
		DenseBwd:  0.2,
		GradBytes: gradBytes,
	}
	if strat == StrategyESP {
		// Two gather stages (inputs, then hidden activations) and the
		// output ReduceScatter; no AlltoAll at all.
		v.NAG = wire + hiddenWire
		v.NRS = wire
	} else {
		v.NA2A = wire
	}
	return v
}

// hybridLayerVolumes derives the volumes of one hybrid grid cell. The
// degenerate group sizes return the pure strategies' volume sets exactly
// (those cells execute the pure strategies' plans, so the grid's edges
// must coincide with the 1-D comparisons). Interior cells interpolate: with lanes of
// R/g ranks, the fraction of dispatched rows crossing lanes is 1-g/R,
// normalized by EP's 1-1/R so g=1 recovers EP's convention; the in-group
// AllGather/ReduceScatter traffic carries the ring factor (g-1)/g,
// normalized by ESP's (R-1)/R so g=R recovers ESP's. Larger groups thus
// trade AlltoAll volume for in-group collective volume — the axis the
// 2-D grid optimizes.
func hybridLayerVolumes(l *Layer, tokens, ranks, g int) Volumes {
	if g <= 1 || ranks <= 1 {
		return layerVolumes(l, tokens, StrategyEP)
	}
	if g >= ranks {
		return layerVolumes(l, tokens, StrategyESP)
	}
	ep := layerVolumes(l, tokens, StrategyEP)
	esp := layerVolumes(l, tokens, StrategyESP)
	rf, gf := float64(ranks), float64(g)
	ring := ((gf - 1) / gf) / ((rf - 1) / rf)
	v := ep
	v.NA2A = ep.NA2A * (rf - gf) / (rf - 1)
	v.NAG = esp.NAG * ring
	v.NRS = esp.NRS * ring
	return v
}

// Forward runs the pipelined multi-rank forward pass on x, shaped
// (B, L, M) or (N, M).
func (w *World) Forward(x *Tensor, train bool) (*Tensor, *WorldCache, error) {
	return w.inner.Forward(x, train)
}

// Backward runs the pipelined multi-rank backward pass.
func (w *World) Backward(cache *WorldCache, dy *Tensor) (*Tensor, error) {
	return w.inner.Backward(cache, dy)
}

// Ranks returns R; Chunked reports whether the fine-grained expert path
// is active (custom experts without the chunked contract fall back to
// whole-block compute with chunked communication under EP/DenseSlots).
func (w *World) Ranks() int    { return w.inner.Ranks() }
func (w *World) Chunked() bool { return w.inner.Chunked() }

// Strategy returns the parallel scheme in effect; AutoStrategy reports
// whether it was chosen automatically.
func (w *World) Strategy() Strategy { return w.inner.Strategy() }
func (w *World) AutoStrategy() bool { return w.autoStrat }

// GroupSize returns the hybrid EP-group size in effect (0 unless the
// strategy is StrategyHybrid), whether configured or grid-chosen.
func (w *World) GroupSize() int { return w.inner.GroupSize() }

// PipelineDegrees returns the forward and backward chunk counts in effect.
func (w *World) PipelineDegrees() (fwd, bwd int) { return w.inner.Degrees() }

// DegreeResults returns Algorithm 1's full forward/backward outcomes when
// the degrees were chosen automatically (zero values otherwise).
func (w *World) DegreeResults() (fwd, bwd DegreeResult) { return w.degF, w.degB }

// AutoDegree reports whether Algorithm 1 chose the degrees.
func (w *World) AutoDegree() bool { return w.auto }

// SetSequential switches between the pipelined stream executor (default)
// and a single-goroutine no-overlap baseline; results are identical.
func (w *World) SetSequential(seq bool) { w.inner.SetSequential(seq) }

// ResourcePlan reports the planned per-stream worker split: workers per
// compute stream, each running on an OS-thread-pinned goroutine with its own
// scoped tensor worker pool, and the shared communication allotment.
// LastTrace().Resources reports the binding a measured pass ran under.
func (w *World) ResourcePlan() (computeWorkers, commWorkers int) { return w.inner.ResourcePlan() }

// Close releases the scoped pools' worker goroutines and retires the
// world. A second Close, or a Forward/Backward after Close, fails with
// ErrWorldClosed. Close waits for the checkpoint commit its stack last
// started and returns that commit's failure (ErrCheckpointCommit), if any.
func (w *World) Close() error { return w.inner.Close() }

// SetFaultPlan installs (or, with nil, removes) a seeded fault injector;
// it drives task-level and in-collective injection from the next Forward.
func (w *World) SetFaultPlan(fp *FaultPlan) { w.inner.SetFaultPlan(fp) }

// SetRetry replaces the default transient-retry policy (4 attempts,
// exponential backoff with jitter, collective task kinds only).
func (w *World) SetRetry(rp RetryPolicy) { w.inner.SetRetry(rp) }

// SetDeadline bounds each pass's plan execution: on expiry the streams
// cancel cooperatively (and drain leak-free) and the pass fails with
// context.DeadlineExceeded in its joined error. Zero removes the deadline.
func (w *World) SetDeadline(d time.Duration) { w.inner.SetDeadline(d) }

// Health reports per-rank health (false = permanently failed). ResetHealth
// restores full strength after a rank-down, modelling the failed worker's
// replacement; dead experts kept zero gradients while degraded, so their
// parameters resume unchanged.
func (w *World) Health() []bool { return w.inner.Health() }
func (w *World) ResetHealth()   { w.inner.ResetHealth() }

// LastDegraded returns the degraded-mode report of the most recent pass
// (nil when it ran at full strength): which experts were lost, tokens
// re-routed or dropped, retries spent, and the recovery-time tail.
func (w *World) LastDegraded() *DegradedResult { return w.inner.LastDegraded() }

// Stats returns cumulative collective traffic across passes.
func (w *World) Stats() CommStats { return w.inner.Stats() }

// LastPlan and LastTrace expose the most recent pass's stream plan and
// measured timeline: LastTrace().Gantt(120) renders the measured Fig. 3,
// and LastPlan().SimulateWith(...) predicts alternative schedules from
// measured stage durations.
func (w *World) LastPlan() *StreamPlan { return w.inner.LastPlan() }
func (w *World) LastTrace() *Trace     { return w.inner.LastTrace() }
