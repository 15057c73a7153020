package fsmoe

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/moe"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
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
	KindAllReduce     = sim.KindAllReduce
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
// split into. Zero means automatic: Algorithm 1 (§4.4) runs per phase on
// the planner's cost model — Testbed A's fitted performance models and a
// degree cap of 16, defined once in the runtime (moe.PlannerModels) — with
// volumes derived from the layer's real shape, BatchTokens and the chosen
// strategy. The chosen degrees are what actually execute.
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

	// BatchTokens is B·L tokens per iteration (default 4096), the volume
	// input of StrategyAuto and the automatic pipeline degrees.
	BatchTokens int

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
type World = moe.World

// NewWorld builds the executable multi-rank runtime for a layer.
func NewWorld(l *Layer, cfg WorldConfig) (*World, error) {
	if l == nil {
		return nil, fmt.Errorf("fsmoe: NewWorld needs a layer")
	}
	mc, _, _ := resolve(l, cfg)
	return moe.NewWorld(l.inner, mc)
}

// resolve turns a WorldConfig into the runtime's configuration: StrategyAuto
// and an explicit hybrid's unset group size become a concrete strategy and
// group size, and an unset forward degree becomes Algorithm 1's per-phase
// picks on that configuration's volumes. fwd and bwd are those picks' full
// results; a phase whose degree was configured reports the zero value.
func resolve(l *Layer, cfg WorldConfig) (mc moe.WorldConfig, fwd, bwd DegreeResult) {
	tokens := cfg.BatchTokens
	if tokens <= 0 {
		tokens = 4096
	}

	strat := cfg.Strategy
	groupSize := cfg.GroupSize
	// pickF/pickB are Algorithm 1's results on the executing configuration's
	// volumes once picked is set: the strategy (or group-size) grid already
	// ran it on the winner's volumes.
	var pickF, pickB DegreeResult
	picked := false
	if strat == StrategyAuto {
		strat, groupSize, pickF, pickB, picked = chooseStrategy(l, tokens, cfg.Ranks)
	} else if strat == StrategyHybrid && groupSize == 0 {
		// Explicit hybrid with an unset group size: the 2-D grid picks g
		// (and the per-phase degrees) over every divisor of the rank
		// count — including the degenerate edges, which are the pure
		// strategies' plans.
		groupSize, pickF, pickB = hybridGroupPick(l, tokens, cfg.Ranks)
		picked = true
	}

	degF, degB := cfg.PipelineDegree, cfg.PipelineDegreeBwd
	if degF == 0 {
		if !picked {
			v := layerVolumes(l, tokens, strat)
			if strat == StrategyHybrid {
				v = hybridLayerVolumes(l, tokens, cfg.Ranks, groupSize)
			}
			pickF, pickB = phaseDegrees(v)
		}
		fwd, degF = pickF, pickF.R
		// An explicit backward degree overrides Algorithm 1's choice even
		// in auto mode; bwd then stays the zero value.
		if degB == 0 {
			bwd, degB = pickB, pickB.R
		}
	} else if degB == 0 {
		degB = degF
	}
	return moe.WorldConfig{
		Ranks:       cfg.Ranks,
		ChunksFwd:   degF,
		ChunksBwd:   degB,
		Algo:        cfg.Algo,
		GPUsPerNode: cfg.GPUsPerNode,
		Strategy:    strat,
		GroupSize:   groupSize,
		Sink:        cfg.Sink,
	}, fwd, bwd
}

// chooseStrategy is StrategyAuto: dense routers shard over slots; hard
// routers holding an adapted plain expert get EP; natively staged layers run the
// 2-D Algorithm-1 grid over (group size × degree), whose g=1 and g=Ranks
// edges carry the pure EP and ESP volume sets — so the EP-vs-ESP
// comparison is this grid restricted to its edges, and an interior winner
// selects StrategyHybrid with its group size. When the grid ran, the
// winner's per-phase degree results are returned for reuse (picked true),
// saving the caller an identical pair of searches.
func chooseStrategy(l *Layer, tokens, ranks int) (strat Strategy, groupSize int, degF, degB core.DegreeResult, picked bool) {
	if dr, ok := l.inner.Gate().(moe.DenseRouter); ok && dr.DenseRouting() {
		return StrategyDenseSlots, 0, degF, degB, false
	}
	if _, native := l.inner.Staged(); !native {
		return StrategyEP, 0, degF, degB, false
	}
	g, f, b := hybridGroupPick(l, tokens, ranks)
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
// per-phase (§4.4).
func hybridGroupPick(l *Layer, tokens, ranks int) (groupSize int, degF, degB core.DegreeResult) {
	for _, g := range divisors(ranks) {
		f, b := phaseDegrees(hybridLayerVolumes(l, tokens, ranks, g))
		if groupSize == 0 || f.TMoE+b.TMoE < degF.TMoE+degB.TMoE {
			groupSize, degF, degB = g, f, b
		}
	}
	return groupSize, degF, degB
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

// phaseDegrees runs Algorithm 1 for both phases on one volume set, on the
// planner's cost model.
func phaseDegrees(v Volumes) (f, b core.DegreeResult) {
	m := moe.PlannerModels()
	f = m.FindOptimalPipelineDegree(v, 0, core.Forward, moe.PlannerRMax)
	b = m.FindOptimalPipelineDegree(v, 0, core.Backward, moe.PlannerRMax)
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
