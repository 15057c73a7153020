// Package fsmoe is the public API of the FSMoE reproduction: a flexible
// MoE layer toolkit (five gating functions, two ordering functions, two
// expert types, six hook points) plus the scheduling system the paper
// contributes (Algorithm 1's adaptive pipeline degrees, inter/intra-node
// communication co-scheduling, and adaptive gradient partitioning),
// evaluated on simulated testbeds.
//
// Building a layer (§3.3's front-end):
//
//	layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{
//	    M: 64, H: 256, Experts: 8, TopK: 2, CapacityFactor: 1.2,
//	    Gate: fsmoe.GateGShard, Order: fsmoe.OrderTutel,
//	    Expert: fsmoe.ExpertGPT, Seed: 42,
//	})
//	y, cache, err := layer.Forward(x, true)
//	dx, err := layer.Backward(cache, dy)
//
// Scheduling a model on a testbed (§4–§6's back-end):
//
//	cluster := fsmoe.TestbedA()
//	times, err := fsmoe.CompareSystems(cluster, fsmoe.Mixtral7B(cluster))
//	fmt.Println(times[fsmoe.SystemFSMoE], times[fsmoe.SystemDSMoE])
//
// # Parallel strategies
//
// The executable multi-rank runtime (NewWorld) splits one layer's work
// across R in-process ranks under a parallel strategy, the
// WorldConfig.Strategy field. Every strategy is the same §4 schedule —
// one plan builder — at an expert-sharding group width g: the R ranks
// form R/g expert-parallel groups of g sharding members.
//
//   - StrategyEP — pure expert parallelism, g = 1: experts sharded E/R
//     per rank, tokens moved by r-chunked dispatch/combine AlltoAll on
//     the shared inter stream;
//   - StrategyESP — expert-sharding parallelism, g = R: every rank
//     computes a shard of every expert (Expert), with chunked
//     AllGather and ReduceScatter stages on the one group's intra:g0
//     stream and an empty inter stream (so §5 Gradient-AllReduce slices
//     overlap freely);
//   - StrategyDenseSlots — SoftMoE dense plans chunked over expert slots
//     instead of token rows, through the g = 1 schedule;
//   - StrategyHybrid — nested EP×ESP, g = WorldConfig.GroupSize (which
//     must divide R), combining both collective families in one
//     schedule;
//   - StrategyAuto (the zero value) — dense gates get DenseSlots, and
//     hard-routing layers run Algorithm 1 as a 2-D grid over (group size
//     × pipeline degree) on per-g volume models, selecting EP (g=1),
//     ESP (g=R) or an interior hybrid cell.
//
// The hybrid schedule, for R=4 ranks and GroupSize g=2 (two EP groups
// of two shard members), per pipeline chunk:
//
//	rank 0 ┐ group 0: AG ×2 + RS on stream intra:g0 ┐
//	rank 1 ┘   (each expert sharded across the group) ├─ dispatch/combine
//	rank 2 ┐ group 1: AG ×2 + RS on stream intra:g1 │  AlltoAll between
//	rank 3 ┘   (experts E·g/R per group)             ┘  groups on "inter"
//
// Each group's intra-collectives run on their own intra:g<G> stream
// concurrently with the other groups' and with the inter-group AlltoAll
// lanes, so both §4 overlap dimensions appear in one plan. The edges
// degenerate exactly because they are the same builder at the same g:
// GroupSize 1 is pure EP's plan and GroupSize R pure ESP's, task for
// task, and every interior cell is bit-identical to the single-rank
// layer. Every collective moves rows straight between the buffers
// themselves; no plan has a pack task. Leaving GroupSize zero under
// StrategyHybrid (or StrategyAuto) lets the grid pick g.
//
// Every strategy is bit-identical to the single-rank Layer path at every
// (R, r); they differ only in which collectives move the data and where
// the slack for gradient synchronization appears.
//
// NewWorld resolves StrategyAuto, an unset hybrid GroupSize and unset
// pipeline degrees inside the runtime, which holds the one Algorithm-1
// planner, and builds the World on the result; Recover re-places that
// resolved configuration. What it picked reads back through Strategy,
// GroupSize and PipelineDegrees; OptimalDegree is the public entry to
// Algorithm 1 itself.
//
// # Compute runtime
//
// The real tensor path runs on a shared runtime (internal/tensor): experts
// execute concurrently on a lazily-started worker pool sized by
// GOMAXPROCS, reading and writing their blocks of the
// (E, T, M) activations through zero-copy views, and transient buffers are
// recycled through a free-list exposed here as GetTensor/PutTensor.
// Parallelism never reorders floating-point accumulation — results are
// bit-identical at any worker count.
//
// The expert GEMMs (a@b, aᵀ@b, a@bᵀ) share one accumulation order — each
// element a chain of fused multiply-adds, p ascending — implemented as a
// portable Go loop (every term a math.FMA) and, on amd64 CPUs with AVX2 and
// FMA, as register-tile micro-kernels (every term a VFMADD231PD, 512-bit
// where the CPU has AVX-512F): the two are bit-identical, and every
// bit-identity contract in this package (World ≡ Layer, chunked ≡
// monolithic, recovered ≡ fresh) holds across them. The activations and the
// gates' exponentials are the tensor package's own exp and tanh, not the
// math package's, whose amd64 exp rounds differently with and without FMA.
// So on amd64 a step's parameters do not depend on the CPU: the pinned
// hashes of TestStepParamHashesPinned are the same with the kernels, with
// -tags purego, and with GODEBUG=cpu.fma=off. (Across GOARCH only the GEMMs
// and exp/tanh/σ are bit-identical by construction; the rest of the step
// is plain Go, which arm64's compiler may fuse differently.) The kernels are picked once at
// start-up from CPUID; a host without AVX2 or FMA, another architecture or
// a -tags purego build runs the loops alone, several times slower. Which
// one a process runs is a line in its output, not a guess: the Chrome trace
// labels every process "gemm kernel: avx512-fma", "gemm kernel: avx2-fma"
// or "gemm kernel: portable" (fsmoe-bench -experiment chaos -trace writes
// one; the repository benchmark's tensor.matmul*_gflops rows time the
// kernels). internal/tensor's package comment has the contract, including
// what is not guaranteed for NaN and Inf operands. The step's element-wise
// loops — the §5 sync's SGD update, the combine's slot sums, bias adds —
// run on AVX-512 row kernels under the same rule:
// eight lanes of the scalar operations, unfused, so the same bits.
//
// Ownership rules for pooled buffers: whoever calls GetTensor owns the
// buffer and must PutTensor it at most once, only after every view of it
// (Reshape/View/Slice/Row all alias the same backing array) is dead. After
// Put, the array may be handed to an unrelated GetTensor, so a stale view
// — or a second PutTensor of the same tensor — silently corrupts someone
// else's data. PutTensor ignores tensors it does not own (NewTensor
// results, views), so releasing a tensor of unknown origin is safe; "at
// most once" still binds for pooled ones.
//
// Experts run under one execution contract, Expert: Begin(PassBufs)
// starts a pass over one (n, M) block on memory the caller owns — the
// blocks, a hidden exchange buffer, ScratchElems of pass-private scratch, a
// hidden-column range [Cl, Ch) and the *WorkerPool its GEMMs fan out onto — and
// returns an ExpertPass whose stage methods take a window set of rows
// (Windows: Count windows of N rows, Stride rows apart):
// ForwardHidden/ForwardOut, then BeginBackward(dy, dx, hidden, GradDst),
// BackwardHidden/BackwardIn, and one full-block Finish. The sequential
// Layer runs each expert as the one window [0, n) over the column range
// [0, H); a World's chunk is one set per stage call — the chunk's rows in
// every token-side rank's shard — and its expert-sharding members column
// ranges of the same methods, which is why every strategy is bit-identical
// to the Layer. A stage should run each GEMM as one product over the set,
// through WorkerPool.MatMulRowsInto / MatMulT2RowsInto: a chunk's window in
// one shard is often thinner than a kernel tile, and one product per window
// streams the weights once per window.
//
// One rule runs through the extension contracts: a producer writes into a
// destination its consumer owns, whatever it held, and returns nothing to
// copy. A custom Gate's Backward(dx, cache, grad) overwrites dx (N, M)
// with its input-gradient contribution (dx.Zero() for a parameter-free
// router); a custom Order's Scatter/Gather/ScatterGrad/GatherGrad take
// their destination first and address expert-major buffers as (E, S, M)
// with a block stride S ≥ capacity the caller chose (pad rows +0, see
// moe.Order); an ExpertPass writes its stages into the PassBufs blocks and
// its Finish puts the parameter gradients where BeginBackward's GradDst
// says — nil means "add to Param.G", otherwise overwrite GradDst[i] with the
// gradient of Params()[i].
//
// Because experts execute concurrently, a custom Expert must not share
// mutable state (scratch buffers, RNGs, tied Param tensors) with another
// expert instance in the same layer. Registering the same instance at
// several indices is detected and runs sequentially; state shared between
// distinct instances is the implementer's responsibility to synchronize.
//
// # Resource governance and the planner's cost model
//
// A World sizes itself to the machine instead of giving every stream its
// own processor, as the simulator does. Its plans run on one executor: k =
// min(GOMAXPROCS, streams in the plan) workers, each taking the ready
// stream head with the lowest task id — ready by the simulator's own start
// rule, its stream idle and its dependencies finished. Every expert GEMM
// fans out onto the World's one kernel pool, ⌊GOMAXPROCS/k⌋ wide for the
// most workers its plans can have, so the k workers' kernels together never
// exceed the machine; World.ResourcePlan reports (width, k). The sequential
// baseline (StepConfig.Sequential) is the same executor at k = 1: task-id
// order on the calling goroutine. Results are bit-identical at every k and
// width: the executor changes contention, never bytes.
//
// The planner has one cost model: Algorithm 1 (StrategyAuto and the
// automatic pipeline degrees) and the §5 partition of every step plan on
// Testbed A's fitted §4.1 models with a degree cap of 16, defined once in
// the runtime's planner; no config field chooses another.
// Fitting them to the machine from measured step traces is future work.
// Custom Expert implementations must route their GEMMs through
// PassBufs.Pool, the World's kernel pool (nil means the shared default
// pool).
//
// # Training steps and resident state
//
// StepStack (on a one-element slice for one layer) is the §5 training
// step: forward, backward with the gradient sync sliced into the backward
// plans' slack, the exposed tail — and the SGD update riding that sync.
// Every gradient element has one contributor, its owner rank (there is no
// data-parallel axis), so the sync is an owner gather, not an all-reduce:
// each slice is stepped once, on its owner, and broadcast to every other
// rank. What does not change from one step to the next is kept on the
// stack. The §5 byte plan (StepResult.Report.Gar) is solved once per distinct input —
// the sync strategy, models, degree cap, chunk and slice settings of
// StepConfig together with every layer's shapes and padded batch
// capacity — and solved again exactly when one of those compares
// different (another batch size, another StepConfig, a Recover to fewer
// ranks); treat it as read-only, later steps share it. Each rank keeps one
// flat buffer in the RankParams layout and owns spans of it (its experts,
// its shard of each gate parameter), where the buffer is in turn its
// gradient — an expert's written by the backward plan's finish task, the
// gate's shard by the stepping goroutine, zero for a dead rank's experts —
// and then w − lr·g; other spans get their owner's replica by broadcast.
// The gather moves each slice in cache-sized tiles, and the exposed tail —
// of a step and of SyncGradients alike — runs on every core of the default
// tensor pool; the bytes are those of one gather on one goroutine.
//
// What a step does to Param.G: nothing, for experts. StepStack neither
// clears nor writes the gradient accumulators of experts; it clears and
// fills the gate's. Param.G is the destination
// of the Forward/Backward you drive yourself, accumulating across calls
// until Layer.ZeroGrad, and what SyncGradients collects. Param.W is
// written by the gather as the slices complete — a layer's parameters are
// final once its slices have run, and a step that returns an error may
// already have stepped the layers whose backward completed (a Recover
// restores all of them from the checkpoint).
//
// Ownership: StepResult.RankParams and SyncReport.LayerGrads are views
// of those stack-owned buffers, not copies. They are valid until the
// next StepStack, Step or SyncGradients on the same worlds, which
// overwrites them; copy what must outlive the call. Comparing replicas
// within one step, or across two different stacks, needs no copy.
//
// The token path is resident the same way. Every buffer a pass moves
// tokens through — the padded expert-major buffers the Order scatters
// straight into and gathers straight from (there is no pad or unpad
// copy), the per-rank expert blocks, the sharded strategies' wire and
// exchange buffers — belongs to one workspace per World, cut for the live shape (ranks, experts, batch
// capacity, width, pipeline degrees, strategy) and reused while that shape
// holds: a warm pass allocates none of them. Forward checks the workspace
// out into the WorldCache it returns and that cache's Backward hands it
// back, so a WorldCache, and the task closures of the plans in
// StepResult.Plans and World.LastPlan, view world-owned memory that is
// valid until that cache's Backward returns — afterwards the next Forward
// overwrites it. A Forward while an earlier cache is still outstanding
// (forward-only evaluation, Forward→Forward→Backward) starts a fresh
// workspace instead, so nothing a live cache points at is reused; Close
// and Recover drop the workspace. What a pass returns is still the
// caller's: the Forward output, the Backward input gradient, StepResult.Y
// and StepResult.DX are fresh tensors. The activations on the inner edges
// of a StepStack stack are not: layer i's output, read by layer i+1, is a
// slot of layer i's workspace until layer i's own Backward returns, and
// the input gradient it hands layer i−1 until its next Forward. The gates'
// per-token selections live in gate-owned scratch under the same rule: a
// RouteCache holds it until its (one) Backward. Under every strategy a
// token row is copied once per collective hop, straight between the
// expert-major buffer and the rank's expert block, or between two ranks'
// blocks.
//
// StepResult.WallMS is the measured wall of the whole call (telemetry
// emission excluded); ForwardMS, BackwardMS and TailMS are the parts of
// it inside measured stream plans and the exposed tail — which contain the
// weight-gradient reductions and the SGD update; what is left outside is
// the gates, the Order and writing the gate's shards — and StepMS() —
// backward plus tail — is the quantity the §5 strategy comparison uses,
// not a wall time.
//
// # Fault tolerance
//
// The executable World survives injected failure. NewFaultPlan compiles a
// FaultSpec — per-kind/per-stream transient probabilities, straggler
// delays, in-collective failures, an optional permanent rank-down — into
// a deterministic injector (every decision is a pure function of the
// seed and the task identity, so chaos runs reproduce under any stream
// interleaving); World.SetFaultPlan installs it.
//
// Transient faults fire before any buffer mutation and are retried with
// exponential backoff and deterministic jitter under World.SetRetry's
// policy (default: 4 attempts, collective kinds only — expert W-gradient
// tasks accumulate in place and are never replayed). A recovered pass is
// bit-identical to a fault-free one; the retries appear as events on the
// measured trace (Trace.Events, Trace.EventCount with EventFault /
// EventRetry / EventStraggler / EventSkip).
//
// World.SetDeadline bounds each pass: on expiry the streams drain
// cooperatively and the pass fails with an error matching
// context.DeadlineExceeded, leaking no goroutines.
//
// A permanent rank failure does not abort the pass: forward-time, the
// dead rank's tokens re-route into surviving experts' free capacity
// (overflow dropped); backward-time, the routing is kept and the dead
// experts' gradient slots are cleared. The router is frozen for the
// degraded step and dead experts accumulate zero gradient, so an
// optimizer step leaves them untouched and ResetHealth resumes from
// consistent weights. World.LastDegraded reports what was lost
// (DegradedResult); World.Health tracks per-rank state, and a
// still-degraded World keeps completing degraded steps until ResetHealth
// (a closed World fails fast with ErrWorldClosed). StepStack completes
// multi-layer §5 steps around a degraded layer with every rank's
// post-step replica still bit-identical.
//
// # Checkpoint/restore and elastic recovery
//
// Degraded mode keeps a step alive; checkpoints and recovery keep the
// run alive. Checkpoint captures the complete training state of a stack
// — parameters, step and collective-op counters, the gate's RNG —
// and CheckpointManager persists it crash-consistently: the snapshot is
// written to a temp file in the target directory, fsynced, and renamed
// into place, so the final name only ever holds a complete file. The
// format (version 2) is a metadata record — step, per-world counters and
// gate RNG, per-tensor names and shapes — then every tensor's float64
// data as raw little-endian spans, then a CRC-32C trailer; corruption
// surfaces as a typed error — ErrCheckpointTruncated,
// ErrCheckpointChecksum, ErrCheckpointMalformed, ErrCheckpointBadMagic,
// ErrCheckpointVersion (version-1 gob files included) — and an empty
// directory as ErrNoCheckpoint. Restore validates every world against
// the snapshot before mutating any of them, so a mismatched snapshot is
// rejected without tearing the stack. Set StepConfig.Checkpoint (and
// optionally CheckpointEvery) to snapshot the stack every n-th step
// from inside the training loop. The step only encodes the live
// parameters (CheckpointManager.Start); checksum, write, fsync, rename
// and prune run on one background goroutine behind the next steps, at
// most one commit in flight. StepResult.CheckpointPath is the file that
// step's snapshot commits to; it is durable once the manager's next
// Start, a Wait, or the worlds' Close has returned, and List, Latest and
// LoadLatest wait for it first. A failed commit fails the next
// checkpointing step with ErrCheckpointCommit and leaves the previous
// file in place. StepMetrics carries the stall as CheckpointWaitMS and
// CheckpointCaptureMS.
//
// After a permanent rank loss, Recover rebuilds the whole stack (a single
// layer is a stack of one) instead of limping: under RecoveryPolicy{Mode:
// RecoverShrink} the world re-plans onto the largest surviving rank
// count that still divides the expert count; RecoverRejoin keeps the
// rank count, modeling a replacement host adopting the dead rank's
// shard. The dead rank's experts are re-assigned, their checkpointed
// weights re-placed through the guarded Broadcast collective (chaos
// injection and traffic accounting reach the recovery path; transient
// faults retry under the world's RetryPolicy), the plan builder
// re-emits the collective chains for the new topology — every strategy
// recovers as itself, ESP at g′ = R′ and Hybrid at g′ = gcd(g, R′) — and
// the fault plan's down trigger is stripped so the rebuilt world is not
// re-killed on its next pass. Recover returns one RecoveryReport per
// layer, recording mode, topology delta (ranks and group size), restored
// step, moved experts, re-placement traffic, retries and the measured
// MTTR; StepMetrics
// carries Recoveries/RecoveryMS when a Sink is set. The recovery
// contract: a recovered run is bit-identical to a fresh World built
// directly on the surviving topology and restored from the same
// snapshot, and Recover leaves exactly the state surface ResetHealth
// would — no degraded residue distinguishes the two paths.
//
// # Observability
//
// The runtime reports what it executed. Set WorldConfig.Sink and every
// StepStack call builds one *StepMetrics — the measured wall, its
// forward/backward/tail parts and the remainder outside them (OutsideMS),
// per-stream busy fractions, the overlap ratio vs the serialized task
// time, per-expert token loads with utilization entropy and imbalance,
// and fault/retry/degraded tallies — returns it on
// StepResult.Metrics and hands it to the sink. NewTelemetry creates a
// metrics registry (counters, gauges, fixed-bucket histograms; an
// expvar.Var), and NewRegistrySink folds step metrics into one.
// ChromeTraceJSON exports one measured or simulated Trace, and
// ChromeTraceBuilder's AddTrace/WriteTo several, as Chrome trace_event JSON
// for Perfetto or chrome://tracing: one process per trace, one thread row
// per stream, task kinds as categories, fault incidents as instant events.
//
// Sink threading and ownership: OnStep is invoked synchronously from the
// goroutine that finished the step, after the SGD update, never
// concurrently with itself for one World stack — a sink that fans out to
// files or sockets must do its own buffering if it cannot afford to block
// the training loop. The metrics value is fully formed when OnStep runs
// and the runtime never mutates or retains it afterwards; the sink may
// keep it. Several Worlds stepped together by StepWorlds may share one
// Sink value — it is deduplicated and receives each step exactly once.
// A nil Sink disables emission entirely; the guard is a single nil check,
// so unconfigured telemetry adds zero allocations to the step hot path
// (BenchmarkStepTelemetryGuard pins this). Registry instruments are
// shared handles: any goroutine may Add/Set/Observe concurrently, and
// Snapshot may run concurrently with writers (it reads atomically, not
// transactionally).
//
// # Plan verification
//
// Every stream plan a World builds is checked task by task as it is built:
// runtime.Plan.Add panics on a task kind outside the canonical set, a
// negative estimate, or a dependency on a task not yet added. A plan is
// therefore well formed by construction: ids are topological, every task
// sits on its stream's queue, and no cycle can form, so the executor
// cannot deadlock.
package fsmoe
