package fsmoe

import (
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/moe"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
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
	// ExpertPass is one pass of an Expert: its stage methods, each over
	// a window set of the pass's rows.
	ExpertPass = moe.ExpertPass
	// Windows is a window set of rows — Count windows of N rows, Stride rows
	// apart — which the ExpertPass stage methods and WorkerPool's
	// MatMulRowsInto / MatMulT2RowsInto take.
	Windows = tensor.Windows
	// PassBufs is the caller-owned memory Expert.Begin receives.
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
	// StrategyAuto (the zero value) lets NewWorld pick the strategy from
	// the layer (see "Parallel strategies" in the package doc).
	StrategyAuto = moe.StrategyAuto
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
	// are the pure strategies exactly).
	StrategyHybrid = moe.StrategyHybrid
	// StrategyDenseSlots runs dense (SoftMoE) plans through the EP
	// pipeline chunked over expert slots instead of token rows.
	StrategyDenseSlots = moe.StrategyDenseSlots
)

// WorldConfig configures multi-rank pipelined execution of a Layer: the
// rank count, the parallel strategy and the pipeline degrees, each of which
// NewWorld resolves inside the runtime when left zero — StrategyAuto and
// the automatic degrees run Algorithm 1 (§4.4) on the layer's real volumes.
type WorldConfig = moe.WorldConfig

// World executes a Layer across in-process ranks under a pluggable
// parallel strategy, with chunked collectives pipelined on real streams.
// Forward and Backward are bit-identical to the Layer's single-rank path
// under every strategy.
type World = moe.World

// NewWorld resolves cfg against the layer and builds the executable
// multi-rank runtime for it.
func NewWorld(l *Layer, cfg WorldConfig) (*World, error) { return moe.NewWorld(l, cfg) }
