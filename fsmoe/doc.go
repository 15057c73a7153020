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
//	dx, err := layer.Backward(cache, dy) // after an eval Forward: layer.Release(cache)
//
// A Layer is a one-rank World: its Forward and Backward run the plans of
// the multi-rank runtime below at one rank and pipeline degree 1, on the
// calling goroutine, so there is one executor. The six §3.1 hooks
// (LayerConfig.Hooks) run on the Layer and on every World over it:
// BeforeMoeStart on the flattened input, the dispatch pair on the
// expert-major buffer the Order fills, before the plan moves it, the
// combine pair on the combined buffer after it, BeforeMoeEnd on the
// output. A dispatch or combine hook may work in place or return a tensor
// of the buffer's size; at R > 1 that buffer is the padded (E, Tpad, M)
// layout, pad rows included, so only hooks that treat each row on its own
// give the same result at every rank count. Hooks are forward-only: the
// backward runs straight through them.
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
// WorldConfig.Strategy field, over any routing. Every strategy is the same
// §4 schedule — one plan builder — at an expert-sharding group width g:
// the R ranks form R/g expert-parallel groups of g sharding members.
//
//   - StrategyEP — pure expert parallelism, g = 1: experts sharded E/R
//     per rank, tokens moved by r-chunked dispatch/combine AlltoAll on
//     the shared inter stream;
//   - StrategyESP — expert-sharding parallelism, g = R: every rank
//     computes a shard of every expert, with chunked
//     AllGather and ReduceScatter stages on the one group's intra:g0
//     stream and an empty inter stream (so §5 Gradient-AllReduce slices
//     overlap freely);
//   - StrategyDenseSlots — EP's g = 1 schedule, chunked over expert slots
//     instead of token rows; a configured name, never picked;
//   - StrategyHybrid — nested EP×ESP, g = WorldConfig.GroupSize (which
//     must divide R), combining both collective families in one
//     schedule;
//   - StrategyAuto (the zero value) — every router, dense ones included,
//     runs Algorithm 1 as a 2-D grid over (group width × pipeline
//     degree) on per-g volume models, naming the winner EP (g=1), ESP
//     (g=R) or an interior hybrid cell.
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
// the slack for gradient synchronization appears. The same holds for
// WorldConfig.Algo, §3.1's three AlltoAll algorithms (A2ADirect, A2A1DH,
// A2A2DH): they move the same rows and differ in how many messages stay
// inside a node of WorldConfig.GPUsPerNode ranks and how many cross nodes
// (Example_alltoAllAlgorithms).
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
// The real tensor path runs on a shared runtime (internal/tensor): a
// World's ranks run their experts concurrently, every expert GEMM fans out
// onto a kernel pool (a Layer's is the lazily-started default pool, sized
// by GOMAXPROCS), and the experts read and write their blocks of the
// (E, T, M) activations through zero-copy views, and transient buffers are
// recycled through one free-list that every goroutine shares and the
// collector does not empty: it keeps each buffer put back, as many as were
// ever out at once.
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
// gates' exponentials are the tensor package's own exp and σ, not the
// math package's, whose amd64 exp rounds differently with and without FMA.
// So on amd64 a step's parameters do not depend on the CPU: the pinned
// hashes of TestStepParamHashesPinned are the same with the kernels, with
// -tags purego, and with GODEBUG=cpu.fma=off. (Across GOARCH only the GEMMs
// and exp/σ are bit-identical by construction; the rest of the step
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
// A custom Gate's Backward(dx, cache, grad) writes into a destination its
// consumer owns, whatever it held, and returns nothing to copy: it
// overwrites dx (N, M) with its input-gradient contribution (dx.Zero() for
// a parameter-free router). A step re-points every Param.W and Param.G at
// the stack's flat buffers, so a gate reads them through its Params on
// every pass and never keeps the tensors.
//
// # Resource governance and the planner's cost model
//
// A World sizes itself to the machine instead of giving every stream its
// own processor, as the simulator does. Its plans run on one executor, the
// World's worker set of k = min(GOMAXPROCS, streams its plans can have)
// workers: the goroutine that runs the pass and k − 1 helpers that NewWorld
// starts and that park between plan executions, so a warm step starts no
// goroutine. A plan with fewer streams uses fewer of them. Each worker takes
// the ready stream head with the lowest task id — ready by the simulator's
// own start rule, its stream idle and its dependencies finished.
// Every expert GEMM fans out onto the World's one kernel pool,
// ⌊GOMAXPROCS/k⌋ wide, so the k workers' kernels together never exceed the
// machine; World.ResourcePlan reports (width, k). Each World of a stack
// owns its set, as it owns its pool, and Recover replaces both when the
// rank count changes k. The sequential baseline (StepConfig.Sequential) is
// the same executor at k = 1: task-id order on the calling goroutine. Results are bit-identical at every k and
// width: the executor changes contention, never bytes.
//
// The planner has one cost model: Algorithm 1 (StrategyAuto and the
// automatic pipeline degrees) and the §5 partition of every step plan on
// Testbed A's fitted §4.1 models with a degree cap of 16, defined once in
// the runtime's planner; no config field chooses another.
// Fitting them to the machine from measured step traces is future work.
//
// # Training steps and resident state
//
// StepStack (on a one-element slice for one layer) is the §5 training
// step: forward, backward with the gradient sync sliced into the backward
// plans' slack, the exposed tail — and the SGD update riding that sync.
// Every gradient element has one contributor (there is no data-parallel
// axis), and the parameters live once: one copy, stepped in place — except
// on the step after a checkpoint, whose commit still reads that copy: that
// step writes its update into a second buffer, made on first use, which
// then becomes the live one. A slice has nothing to reduce or copy; it
// steps its elements, once each. What
// does not change from one step to the next is kept on the stack. The §5
// byte plan (StepResult.Report.Gar) is solved once per distinct input — the
// sync strategy, models, degree cap, chunk and slice settings of
// StepConfig together with every layer's shapes and padded batch
// capacity — and solved again exactly when one of those compares
// different (another batch size, another StepConfig, a Recover to fewer
// ranks); treat it as read-only, later steps share it. The stack keeps its
// parameters and their gradients as two flat buffers in the RankParams
// layout, and every Param.W and Param.G is a view of its span of them:
// the first step or SyncGradients on a stack copies the parameters in
// (SyncGradients the accumulated gradients too) and re-points each Param,
// and a later one does so again only when a parameter no longer is its
// view (another stack over the same first world, a tensor the caller
// replaced). The step after a checkpoint re-points every Param.W at its
// view of the second buffer, without allocating. The backward writes the
// gradient where the §5 slices read it — an expert's by the backward
// plan's finish task, the gate's by its backward, zero for a dead rank's
// experts — and a slice steps the
// parameters with one row operation, w += (−lr)·g, which has the bits of
// w − lr·g. A stack in which two entries share a layer's parameters (the
// same World twice, or two Worlds over one Layer) is refused. The exposed
// tail — of a step and of SyncGradients alike — runs on every core of the
// default tensor pool; the bytes are those of the tail run on one
// goroutine.
//
// What a step does to Param.G: it leaves the step's gradient there. Each
// expert's finish task writes over its Param.G, a dead rank's experts read
// zero, and the gate's is cleared and accumulated — the values a
// Layer.ZeroGrad and a Forward/Backward you drive yourself leave, from the
// same parameters. Between steps Param.G is the destination of that
// Forward/Backward, accumulating across calls until Layer.ZeroGrad, and
// what SyncGradients synchronizes in place. Param.W is written by the
// update as the slices complete — a layer's parameters are final once its
// slices have run, and a step that returns an error may already have
// stepped the layers whose backward completed (a Recover restores all of
// them from the checkpoint). The step after a checkpoint steps none before
// it completes: its update writes the second buffer.
//
// Ownership: StepResult.RankParams (one row, the post-step parameters) is
// the stack's parameter buffer and SyncReport.LayerGrads are views of its
// gradient buffer — the memory the live Param.W and Param.G view, not
// copies.
// They are valid until the next StepStack or SyncGradients on the same
// worlds, which overwrites them; copy what must outlive the call. Comparing
// the rows of two different stacks needs no copy.
//
// The token path is resident the same way. Every buffer a pass moves
// tokens through — the padded expert-major buffers the experts' outputs
// land in and the Order gathers straight from (there is no pad or unpad
// copy), the per-rank expert blocks, the sharded strategies' exchange
// buffers — belongs to one workspace per World, cut for the live shape
// (ranks, experts, batch capacity, width, pipeline degrees, strategy) and
// reused while that shape holds: a warm pass allocates none of them. A
// sparse plan at R > 1 is laid out by its collectives, not by the Order:
// the dispatch reads each slot's token row straight from the layer's input
// through the plan's slot index, and the combine-gradient exchange reads
// w·dy rows the same way, so neither expert-major plane exists. At R = 1
// and for dense plans, with no collective to carry the layout, the Order
// scatters into a padded buffer of the workspace. Forward checks the workspace
// out into the WorldCache it returns and that cache's Backward hands it
// back, so a WorldCache, and the task closures of the plans in
// StepResult.Plans and World.LastPlan, view world-owned memory that is
// valid until that cache's Backward returns — afterwards the next Forward
// overwrites it. The plans are resident too: a workspace keeps its forward
// and backward plan, built on its first pass and replayed while the batch
// capacity, the pipeline degrees, the placement and the step's §5 slices
// hold, and each execution rewrites its plan's one measured trace. So
// StepResult.Plans and Traces and World.LastPlan and LastTrace are valid
// until the world's next pass; read what must outlive it first. A Forward
// while an earlier cache is still outstanding (Forward→Forward→Backward,
// a World's forward-only call; a Layer's ends with Release) starts a fresh
// workspace instead, so nothing a live cache points at is reused; Close
// and Recover drop the workspace. Close also stops the World's executor
// helpers and kernel-pool goroutines. What World.Forward and World.Backward
// return is still the caller's: fresh tensors. What StepStack moves between
// layers and returns is not. Layer i's output, read by layer i+1, is a slot
// of layer i's workspace until layer i's own Backward returns, and the input
// gradient it hands layer i−1 until its next Forward. StepResult.Y and
// StepResult.DX are such slots too — of the last and the first world — so,
// like RankParams, they are valid until the next StepStack on the same
// worlds; feeding either back in as that step's x or dy fails (pass a
// Clone). A gate's routing lives in gate-owned
// scratch under the same rule as the workspace: the RouteCache, the
// DispatchPlan with its slot tables, the score matrices and the plan's
// weight gradient. A Route takes the gate's idle scratch — or makes another
// while an earlier RouteCache is still outstanding — and the cache's one
// Backward (or Release) hands it back, so the plan a Route returns is
// valid until the next Route after that. Under every strategy a token row
// is copied once per collective hop, straight from the layer's input or
// output gradient (or the expert-major buffer) into a rank's expert block,
// between two ranks' blocks, or back to the expert-major buffer.
//
// StepResult.WallMS is the measured wall of the whole call (telemetry
// emission excluded); ForwardMS, BackwardMS and TailMS are the parts of
// it inside measured stream plans and the exposed tail — which contain the
// weight-gradient reductions, the SGD update, the token layout of sparse
// plans (fused into the exchanges) and, on the backward plan's route
// stream, the gate's backward and the Order adjoint; what is left outside
// is the routing on the critical path — the gate's Route, the Order's
// Gather and the slot-weight gradient's dot products — and clearing the
// gate's gradients (at R = 1 and for dense plans also the Order's Scatter
// and GatherGrad) — and StepMS() — backward plus tail — is the quantity
// the §5 strategy comparison uses, not a wall time.
//
// # Fault tolerance
//
// The executable World survives injected failure. NewFaultPlan compiles a
// FaultSpec — per-kind transient probabilities, straggler delays, an
// optional permanent rank-down — into a deterministic injector (every
// decision is a pure function of the seed, the task and the attempt, so
// chaos runs reproduce under any stream interleaving and a replayed plan
// fails the same attempts); World.SetFaultPlan installs it. The runtime
// consults it before each task attempt, collectives included: there is
// one level of injection, the task.
//
// Transient faults fire before the task body runs, so before any buffer
// mutation, and are retried at once, up to 4 attempts, on AlltoAll, AllGather, ReduceScatter and
// AllReduce tasks (expert W-gradient tasks accumulate in place and are
// never replayed). A recovered pass is
// bit-identical to a fault-free one; the retries appear as events on the
// measured trace (Trace.Events, Trace.EventCount with EventFault /
// EventRetry / EventStraggler). IsTransient and IsPermanent classify an
// injected fault an error carries; a transient that exhausts its attempts
// fails the pass (ExampleIsTransient).
//
// World.SetDeadline bounds each pass: on expiry the streams drain
// cooperatively and the pass fails with an error matching
// context.DeadlineExceeded, leaking no goroutines
// (ExampleWorld_SetDeadline).
//
// A permanent rank failure does not abort a hard-routing pass: it completes
// degraded, on the layer's own one-rank World — the plan builder and
// executor every pass runs — with every expert in place and the dead
// rank's holding no token. Forward-time, the dead rank's tokens re-route
// into surviving experts' free capacity (overflow dropped); backward-time,
// the routing is kept and the dead experts' tokens are dropped. The World
// keeps no trace of a degraded pass. The router is frozen for the
// degraded step (no gate backward, a +0 gate gradient) and dead experts
// get a +0 gradient, so an optimizer step leaves them untouched and
// ResetHealth resumes from consistent weights. World.LastDegraded reports what was lost
// (DegradedResult); World.Health tracks per-rank state, and a
// still-degraded World keeps completing degraded steps until ResetHealth
// (a closed World fails fast with ErrWorldClosed). StepStack completes
// multi-layer §5 steps around a degraded layer, the dead experts'
// parameters frozen. A dense (SoftMoE) pass has no per-token fallback: it
// fails with the permanent fault (IsPermanent), the rank reported down.
//
// # Checkpoint/restore and elastic recovery
//
// Degraded mode keeps a step alive; checkpoints and recovery keep the
// run alive. Checkpoint captures the complete training state of a stack
// — parameters, step counter, the gate's RNG —
// and CheckpointManager persists it crash-consistently: the snapshot is
// written to a temp file in the target directory, fsynced, and renamed
// into place, so the final name only ever holds a complete file. With
// Keep >= 2 the oldest retained snapshot becomes the next commit's temp
// file, overwritten in place: a crash or a failed commit leaves the
// newest committed snapshot but costs that oldest one, and a path older
// than the newest Keep may be overwritten, so do not hold it open. The
// format (version 3) is a metadata record — step, per-world step counter
// and gate RNG, per-tensor names and shapes — then every tensor's float64
// data as raw little-endian spans, then a CRC-32C trailer; a damaged or
// foreign file fails loudly instead of restoring garbage — a flipped bit
// as ErrCheckpointChecksum (ExampleCheckpointManager) — and so does an
// empty directory. Restore validates every world against
// the snapshot before mutating any of them, so a mismatched snapshot is
// rejected without tearing the stack. Set StepConfig.Checkpoint (and
// optionally CheckpointEvery) to snapshot the stack every n-th step
// from inside the training loop. The step encodes only the header and the
// metadata (CheckpointManager.Start); checksum, write, fsync, rename and
// prune run on one background goroutine behind the next steps, at most one
// commit in flight, and the write reads the live parameters where they
// are. The commit reads the caller's tensors until the next Start, Wait or
// List returns: the next step writes its update around them, Restore and
// Recover wait for the commit, and a Param.W you write by hand waits for
// the manager's Wait. StepResult.CheckpointPath is the file that
// step's snapshot commits to; it is durable once the manager's next
// Start, a Wait, or the worlds' Close has returned, and List, Latest and
// LoadLatest wait for it first. A failed commit fails the next
// checkpointing step and leaves the newest previously committed file in
// place. With Keep > 0 a manager's directory only moves forward: a step
// older than its newest snapshot — a run restarted in a directory of a
// later run's snapshots — is refused before anything is encoded or written, as the prune
// would delete the file just committed; keep-all prunes nothing and commits
// any step. StepMetrics carries the stall as CheckpointWaitMS, the wait
// for the previous commit, and CheckpointCaptureMS, the snapshot's views
// and its header and metadata encoded: no parameter is copied.
//
// After a permanent rank loss, Recover rebuilds the whole stack (a single
// layer is a stack of one) instead of limping: under RecoveryPolicy{Mode:
// RecoverShrink}, the zero policy's one mode, the world re-plans onto the
// largest surviving rank count that still divides the expert count. The
// dead rank's experts are re-assigned, their checkpointed weights
// re-placed through the Broadcast collective (traffic accounting reaches
// the recovery path, and so does chaos: each attempt draws from
// FaultSpec.KindProb["Broadcast"] first, and a transient retries at once
// under the same 4-attempt budget), the plan builder
// re-emits the collective chains for the new topology — every strategy
// recovers as itself, ESP at g′ = R′ and Hybrid at g′ = gcd(g, R′) — and
// the fault plan's down trigger is stripped so the rebuilt world is not
// re-killed on its next pass. Recover returns one RecoveryReport per
// layer, recording mode, topology delta (ranks and group size), restored
// step, moved experts, re-placement traffic, retries and the measured
// MTTR; StepMetrics
// carries Recoveries/RecoveryMS when a Sink is set. Recovery is
// all-or-nothing across the stack: every layer's weights are re-placed
// before any layer's topology changes, so a broadcast that exhausts its
// retries leaves every layer at the old rank count, rolled back to the
// snapshot with the down rank still reported, and Recover can run again. The recovery
// contract: a recovered run is bit-identical to a fresh World built
// directly on the surviving topology and restored from the same
// snapshot, and Recover leaves exactly the state surface ResetHealth
// would — no degraded residue distinguishes the two paths.
//
// # Observability
//
// The runtime reports what it executed. Set WorldConfig.Sink and every
// StepStack call builds one *StepMetrics — the measured wall, its
// forward/backward/tail parts,
// per-stream busy fractions, the overlap ratio vs the serialized task
// time, per-expert token loads with utilization entropy and imbalance,
// and fault/retry/degraded tallies — returns it on
// StepResult.Metrics and hands it to the sink. NewTelemetry creates a
// metrics registry (counters, gauges, fixed-bucket histograms; an
// expvar.Func publishes its Snapshot), and NewRegistrySink folds step
// metrics into one.
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
