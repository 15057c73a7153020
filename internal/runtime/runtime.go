// Package runtime executes stream-based schedules for real.
//
// It is the executable twin of internal/sim: the same model — a set of
// serialized streams, tasks enqueued per stream in program order — and the
// same start rule as sim.Graph.Run: a stream's head task may start once its
// stream is idle and every one of its dependencies has finished. The tasks
// here carry closures that move real bytes and run real GEMMs, and the
// trace that comes back holds *measured* wall-clock intervals instead of
// modelled durations.
//
// A Plan is a sim.Graph plus one closure per task, so the simulator and
// the executor read the same tasks, and it has two interpretations:
//
//   - Simulate() feeds the tasks' estimated durations through the
//     discrete-event engine, which gives every stream its own processor,
//     and returns the predicted trace;
//   - ExecuteOn() runs the closures on a WorkerSet of k long-lived workers
//     and returns the measured trace; Execute() makes a set for the call and
//     ExecuteSequential() runs at k = 1 — the no-overlap baseline that turns
//     "pipelining helps" from a simulator claim into a wall-clock measurement.
//
// Add is the one place a task is checked. It rejects a kind outside
// sim.Kinds(), the closed set breakdowns, fault filters and retry
// allowlists key on, a negative estimate, and a dependency on a task not
// yet added. So every plan is well formed by construction: ids are
// topological — a task's dependencies and its stream predecessors all have
// lower ids — and no cycle can form.
//
// The executor is a list scheduler. Its workers share one scan of the
// stream heads under one mutex, and a free worker takes the ready head with
// the lowest task id. As ids are topological, the lowest unfinished task is
// always ready or running. Hence no k can deadlock, and at k = 1 the tasks
// run in id order.
//
// A Plan is replayable: it may be executed any number of times, one
// execution at a time, and every execution runs each closure once. What an
// execution measures is reset when the next one starts: the workers' shared
// state (stream heads, finished tasks, the incident log) and the measured
// trace, which is the plan's own — one *sim.Trace per plan, rewritten by
// each execution, so a trace an execution returned is valid until the plan
// is executed again. The closures are the caller's: a plan replayed over
// the same buffers reads whatever per-run state its closures reach through
// holders the caller refreshes between executions. Execute on a plan that
// is still running fails; a plan that gained tasks since its last execution
// sizes its state afresh.
package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Binding is an inert per-stream record: the executor never reads it and
// no plan builder in this module sets it. It stays for the repository
// benchmark's dispatch probe, the last caller of BindStream and Bindings,
// which copies a plan's bindings onto its replica.
type Binding struct {
	Workers int
}

// RetryPolicy bounds the re-execution of tasks that fail with a
// retry-safe (fault.Transient) error: injected faults fire before the
// task body runs, so a retried task always replays from clean buffers and
// the final result stays bit-identical to a fault-free run. Errors that are
// not classified transient — real task failures whose side effects are
// unknown — are never retried. A retry runs at once, on the worker that
// took the task: every injected decision is a pure function of (seed,
// task, attempt), so waiting between attempts could not change the next
// one's outcome.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per task (1 or less
	// disables retry).
	MaxAttempts int
	// Kinds restricts retry to these task kinds (nil means every kind) —
	// the collective kinds in practice, whose closures are pure transfers.
	Kinds []string
}

func (r RetryPolicy) attempts() int {
	if r.MaxAttempts < 1 {
		return 1
	}
	return r.MaxAttempts
}

func (r RetryPolicy) retryable(kind string) bool {
	if r.Kinds == nil {
		return true
	}
	for _, k := range r.Kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// Plan is a schedule under construction: a sim.Graph of tasks whose
// Durations are their estimates, and the closure each task runs. Enqueue
// order per stream is the execution order, as on a CUDA stream.
type Plan struct {
	g        *sim.Graph
	fns      []func() error // per task id; nil is a zero-work marker
	bindings map[string]Binding
	injector *fault.Plan
	retry    RetryPolicy

	// What one execution resets and the next reuses: the workers' shared
	// state and the measured trace, both sized for the sized tasks the plan
	// had when they were made. running refuses a second execution while one
	// is in flight.
	running atomic.Bool
	state   execState
	trace   *sim.Trace
	sized   int
}

// errRunning reports an execution of a plan that is already running.
var errRunning = errors.New("runtime: plan is already running (a plan runs one execution at a time)")

// SetFaultPlan installs a deterministic fault injector consulted before
// every task attempt (nil removes it). Injection happens strictly before
// the task body runs, so transient faults never leave half-mutated
// buffers behind.
func (p *Plan) SetFaultPlan(fp *fault.Plan) { p.injector = fp }

// SetRetry installs the retry policy for transient task failures. The
// zero policy (the default) disables retry.
func (p *Plan) SetRetry(rp RetryPolicy) { p.retry = rp }

// NewPlan returns an empty schedule.
func NewPlan() *Plan { return &Plan{g: sim.NewGraph()} }

// BindStream records a stream's Binding; the last binding for a name wins.
// Nothing executes differently for it.
func (p *Plan) BindStream(stream string, b Binding) {
	if p.bindings == nil {
		p.bindings = make(map[string]Binding)
	}
	p.bindings[stream] = b
}

// Bindings returns a copy of the recorded bindings.
func (p *Plan) Bindings() map[string]Binding {
	out := make(map[string]Binding, len(p.bindings))
	for s, b := range p.bindings {
		out[s] = b
	}
	return out
}

// TaskInfo is the reporting view of one planned task.
type TaskInfo struct {
	ID     int
	Label  string
	Kind   string
	Stream string
	Est    float64 // modelled duration/volume estimate (Simulate units)
	Deps   []int
}

// Tasks returns a copy of the planned tasks in id order — the structural
// view that pairs each task's volume estimate with its measured duration.
func (p *Plan) Tasks() []TaskInfo {
	out := make([]TaskInfo, p.Len())
	for i := range out {
		t := p.g.Task(i)
		out[i] = TaskInfo{ID: t.ID, Label: t.Label, Kind: t.Kind, Stream: t.Stream, Est: t.Duration, Deps: slices.Clone(t.Deps)}
	}
	return out
}

// kinds is sim.Kinds(), the task kinds Add accepts.
var kinds = sim.Kinds()

// Add enqueues a task on a stream and returns its id. kind must be one of
// sim.Kinds(); est is the modelled duration (ms) Simulate uses; fn is the
// real work Execute runs (nil is a zero-work marker). deps may reference
// only previously added tasks. Add panics on a task that breaks any of
// these rules.
func (p *Plan) Add(label, kind, stream string, est float64, fn func() error, deps ...int) int {
	if !slices.Contains(kinds, kind) {
		panic(fmt.Sprintf("runtime: task %q has kind %q outside sim.Kinds()", label, kind))
	}
	id := p.g.Add(label, kind, stream, est, deps...)
	p.fns = append(p.fns, fn)
	return id
}

// Len returns the number of tasks.
func (p *Plan) Len() int { return p.g.Len() }

// Verify returns nil: Add checks every invariant as each task goes in, so
// a finished plan has nothing left to check. It stays for the repository
// benchmark's verification probe, its last caller.
func (p *Plan) Verify() error { return nil }

// Simulate runs the plan's structure through the discrete-event engine
// using the tasks' estimated durations and returns the predicted trace.
// It does not touch the closures and may be called any number of times.
func (p *Plan) Simulate() *sim.Trace { return p.g.Run() }

// SimulateWith is Simulate with per-task durations overriding the
// estimates — the hook for "predict the pipelined makespan from measured
// sequential stage times". durations[i] replaces task i's estimate; a nil
// slice keeps every estimate, and NaN-free callers may mix (negative
// entries keep the estimate).
func (p *Plan) SimulateWith(durations []float64) *sim.Trace { return p.g.RunWith(durations) }

// execState is the state the workers of one execution share. mu guards
// the incident log and the scheduling state: where each stream's queue
// stands and which tasks have finished.
type execState struct {
	// ctx is the caller's context, and stop the execution's own way to end,
	// set on a permanent fault, with stopped closed beside it. Either one
	// stops new task bodies from being issued, retries included (in-flight
	// closures finish naturally), and cuts straggler delays short; the
	// workers still take every task, so the call returns with no helper
	// left in the plan. The plan keeps stopped across executions and makes a
	// new one only after an execution that closed it, so a resident plan's
	// execution allocates no context.
	ctx     context.Context
	stop    atomic.Bool
	stopped chan struct{}
	t0      time.Time
	timings []timing // per task, written by the worker that took it
	wg      sync.WaitGroup

	mu     sync.Mutex
	cond   sync.Cond // signalled when a head is ready for a waiting worker
	events []sim.Event
	queues [][]int // per stream, its task ids in enqueue order
	head   []int   // per stream, the position of its first untaken task
	busy   []bool  // per stream, one of its tasks is running
	done   []bool  // per task, finished (run, failed or skipped)
	left   int     // tasks not yet taken
}

func (e *execState) canceled() bool { return e.stop.Load() || e.ctx.Err() != nil }

// halt stops the execution (a permanent fault); the first call closes stopped.
func (e *execState) halt() {
	if e.stop.CompareAndSwap(false, true) {
		close(e.stopped)
	}
}

func (e *execState) record(ev sim.Event) {
	ev.AtMS = time.Since(e.t0).Seconds() * 1e3
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.mu.Unlock()
}

// sleep pauses for d (a straggler's delay, the only wait inside a task)
// unless cancellation arrives first; it reports whether the full pause
// completed.
func (e *execState) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-e.ctx.Done():
		return false
	case <-e.stopped:
		return false
	}
}

// taskEvent pre-fills the identity fields of an incident on task t.
func taskEvent(typ string, t *sim.Task, attempt int, detail string) sim.Event {
	return sim.Event{Type: typ, TaskID: t.ID, Label: t.Label, Kind: t.Kind, Stream: t.Stream, Attempt: attempt, Detail: detail}
}

// runAttempts drives one task through injection, execution and bounded
// retry; a retry follows the failed attempt at once, unless the execution
// was canceled meanwhile. Each attempt consults the injector BEFORE the
// task body, so injected transients never see mutated buffers; body errors
// are retried only when classified fault-transient (a body may return one
// only before it mutates anything). A permanent fault triggers cooperative
// cancellation of the whole plan.
func (p *Plan) runAttempts(e *execState, t *sim.Task) error {
	maxAttempts := p.retry.attempts()
	fn := p.fns[t.ID]
	for attempt := 0; ; attempt++ {
		var err error
		if p.injector != nil {
			d := p.injector.Check(t.Stream, t.Kind, t.Label, t.ID, attempt)
			if d.Delay > 0 {
				e.record(taskEvent(sim.EventStraggler, t, attempt, d.Delay.String()))
				if !e.sleep(d.Delay) {
					return nil // canceled mid-delay; caller drains
				}
			}
			err = d.Err
		}
		if err == nil && fn != nil {
			err = fn()
		}
		if err == nil {
			return nil
		}
		wrapped := fmt.Errorf("runtime: task %q: %w", t.Label, err)
		if fault.IsPermanent(err) {
			e.record(taskEvent(sim.EventFault, t, attempt, "permanent: "+err.Error()))
			e.halt()
			return wrapped
		}
		if !fault.IsTransient(err) {
			return wrapped // real failure: side effects unknown, never retried
		}
		e.record(taskEvent(sim.EventFault, t, attempt, err.Error()))
		if attempt+1 >= maxAttempts || !p.retry.retryable(t.Kind) || e.canceled() {
			return fmt.Errorf("%w (after %d attempts)", wrapped, attempt+1)
		}
		e.record(taskEvent(sim.EventRetry, t, attempt+1, ""))
	}
}

// timing is one task's measured outcome.
type timing struct {
	start, finish time.Duration
	err           error
}

// runTask runs one task taken by a worker, or records it skipped once the
// execution is canceled.
func (p *Plan) runTask(e *execState, t *sim.Task) {
	tm := &e.timings[t.ID]
	if e.canceled() {
		now := time.Since(e.t0)
		tm.start, tm.finish = now, now
		e.record(taskEvent(sim.EventSkip, t, 0, "canceled"))
		return
	}
	tm.start = time.Since(e.t0)
	tm.err = p.runAttempts(e, t)
	tm.finish = time.Since(e.t0)
}

// next returns the stream whose head is ready with the lowest task id (-1
// when no head is ready), and whether another head is ready too. A head is
// ready when its stream is idle and all its dependencies have finished:
// sim.Graph.Run's start rule.
func (e *execState) next(g *sim.Graph) (best int, more bool) {
	best, bestID := -1, 0
	for i, q := range e.queues {
		if e.busy[i] || e.head[i] == len(q) {
			continue
		}
		id := q[e.head[i]]
		if !e.depsDone(g.Task(id)) {
			continue
		}
		if best >= 0 {
			more = true
			if id > bestID {
				continue
			}
		}
		best, bestID = i, id
	}
	return best, more
}

func (e *execState) depsDone(t *sim.Task) bool {
	for _, d := range t.Deps {
		if !e.done[d] {
			return false
		}
	}
	return true
}

// work is one worker: it takes the lowest ready head, runs it outside the
// lock and repeats until every task is taken. Only a finished task makes a
// head ready, and the worker that finished it scans next, so a worker waits
// only while no head is ready; whoever takes a head while another is ready
// wakes one waiter for it.
func (p *Plan) work(e *execState) {
	e.mu.Lock()
	for e.left > 0 {
		i, more := e.next(p.g)
		if i < 0 {
			e.cond.Wait()
			continue
		}
		id := e.queues[i][e.head[i]]
		e.head[i]++
		e.busy[i] = true
		e.left--
		if more {
			e.cond.Signal()
		}
		e.mu.Unlock()
		p.runTask(e, p.g.Task(id))
		e.mu.Lock()
		e.done[id] = true
		e.busy[i] = false
	}
	// Waiters see left == 0 and leave too.
	e.cond.Broadcast()
	e.mu.Unlock()
}

// WorkerSet is the executor's k workers: an execution's caller and k − 1
// helpers, parked on one channel between executions, that an execution
// hands its plan to. A set serves one execution at a time.
type WorkerSet struct {
	k     int
	plans chan *Plan
}

// NewWorkerSet starts a set of k workers, at least one; Close stops it.
func NewWorkerSet(k int) *WorkerSet {
	k = max(1, k)
	s := &WorkerSet{k: k, plans: make(chan *Plan, k-1)}
	for range k - 1 {
		go func() {
			for p := range s.plans {
				p.work(&p.state)
				p.state.wg.Done()
			}
		}()
	}
	return s
}

// K returns the set's width: the most task bodies its executions run at once.
func (s *WorkerSet) K() int { return s.k }

// Close stops an idle set: its helpers exit as they next look for a plan.
func (s *WorkerSet) Close() { close(s.plans) }

// reset readies the plan's execution state and trace for one execution:
// sized afresh for a plan that gained tasks since it was last sized, cleared
// otherwise.
func (p *Plan) reset(ctx context.Context) *execState {
	e, n := &p.state, p.Len()
	if p.trace == nil || p.sized != n {
		streams := p.g.Streams()
		*e = execState{
			timings: make([]timing, n),
			queues:  make([][]int, len(streams)),
			head:    make([]int, len(streams)),
			busy:    make([]bool, len(streams)),
			done:    make([]bool, n),
		}
		for i, name := range streams {
			e.queues[i] = p.g.Queue(name)
		}
		intervals := make([]sim.Interval, n)
		for i := range intervals {
			intervals[i].Task = p.g.Task(i)
		}
		p.trace, p.sized = sim.NewTrace(intervals, streams), n
	} else {
		clear(e.timings)
		clear(e.head)
		clear(e.busy)
		clear(e.done)
		e.events = e.events[:0]
	}
	e.left = n
	e.cond.L = &e.mu
	if e.stopped == nil || e.stop.Load() {
		e.stopped = make(chan struct{})
		e.stop.Store(false)
	}
	e.t0 = time.Now()
	e.ctx = ctx
	return e
}

// finishTrace writes the measured intervals into the plan's trace and
// returns it with the joined error set. Each interval's Task is the plan's
// own: its Duration is the estimate, the interval holds the measurement.
func (p *Plan) finishTrace(ctx context.Context, e *execState) (*sim.Trace, error) {
	var errs []error
	tr := p.trace
	tr.Makespan = 0
	for i, tm := range e.timings {
		if tm.err != nil {
			errs = append(errs, tm.err)
		}
		iv := &tr.Intervals[i]
		iv.Start, iv.Finish = tm.start.Seconds()*1e3, tm.finish.Seconds()*1e3
		tr.Makespan = max(tr.Makespan, iv.Finish)
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, fmt.Errorf("runtime: execution canceled: %w", err))
	}
	tr.Events = nil
	if len(e.events) > 0 {
		tr.Events = e.events
	}
	return tr, errors.Join(errs...)
}

// Execute runs the plan for real with no deadline; see ExecuteCtx.
func (p *Plan) Execute() (*sim.Trace, error) {
	return p.ExecuteCtx(context.Background())
}

// ExecuteCtx is ExecuteOn on a set of min(GOMAXPROCS, streams) workers.
func (p *Plan) ExecuteCtx(ctx context.Context) (*sim.Trace, error) {
	s := NewWorkerSet(min(goruntime.GOMAXPROCS(0), len(p.g.Streams())))
	defer s.Close()
	return p.ExecuteOn(ctx, s)
}

// ExecuteOn runs the plan for real on min(k, streams) workers of s, the
// calling goroutine among them; it starts no goroutine. A worker takes the
// ready stream head with the lowest task id — ready by sim.Graph.Run's
// start rule: its stream idle, its dependencies finished — so each stream
// runs one task at a time in enqueue order, and at most k task bodies run at
// once. The lowest unfinished task is always ready or running, so the
// workers never deadlock. The returned trace holds measured wall-clock
// intervals in milliseconds relative to the execution start; it is the
// plan's own, rewritten by the plan's next execution. ExecuteOn on a
// running plan fails without running anything.
//
// Failure semantics: an ordinary task error aborts nothing — streams
// drain fully and downstream tasks still run (their inputs may be
// garbage, which the caller must treat as fatal). A transient injected
// fault is retried at once under the plan's RetryPolicy; a task's attempts
// run one after another on the worker that took it.
// A permanent fault, a ctx cancellation or an expired ctx deadline
// triggers cooperative cancellation instead: no further task bodies are
// issued, but the workers still take and skip every remaining task, so
// the call always returns with every helper out of the plan. All task
// errors are collected and returned via errors.Join (plus the ctx error
// when cancellation came from outside).
func (p *Plan) ExecuteOn(ctx context.Context, s *WorkerSet) (*sim.Trace, error) {
	if !p.running.CompareAndSwap(false, true) {
		return nil, errRunning
	}
	defer p.running.Store(false)
	e := p.reset(ctx)
	k := max(1, min(s.k, len(e.queues)))
	e.wg.Add(k - 1)
	for range k - 1 {
		s.plans <- p
	}
	p.work(e)
	e.wg.Wait()
	return p.finishTrace(ctx, e)
}

// ExecuteSequential runs every closure one after another with no
// deadline; see ExecuteSequentialCtx.
func (p *Plan) ExecuteSequential() (*sim.Trace, error) {
	return p.ExecuteSequentialCtx(context.Background())
}

// ExecuteSequentialCtx is ExecuteOn on a set of one worker, the calling
// goroutine, which always finds the lowest unfinished task ready and so
// runs the closures in task-id order with no cross-stream overlap — the
// measured baseline a pipelined Execute is compared against. The trace
// attributes each task to its declared stream so breakdowns stay
// comparable, and the fault decisions are keyed on task ids, so the same
// faults fire in both modes.
func (p *Plan) ExecuteSequentialCtx(ctx context.Context) (*sim.Trace, error) {
	return p.ExecuteOn(ctx, &WorkerSet{k: 1})
}

// Durations extracts per-task durations (ms) from a trace indexed by task
// id — the glue between a measured ExecuteSequential trace and
// SimulateWith.
func Durations(tr *sim.Trace) []float64 {
	max := -1
	for _, iv := range tr.Intervals {
		if iv.Task.ID > max {
			max = iv.Task.ID
		}
	}
	out := make([]float64, max+1)
	for _, iv := range tr.Intervals {
		out[iv.Task.ID] = iv.Finish - iv.Start
	}
	return out
}
