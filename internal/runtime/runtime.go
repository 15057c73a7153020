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
// A Plan is built exactly like a sim.Graph and is one artifact with two
// interpretations:
//
//   - Simulate() feeds the tasks' estimated durations through the
//     discrete-event engine, which gives every stream its own processor,
//     and returns the predicted trace;
//   - Execute() runs the closures on k = min(GOMAXPROCS, streams) workers
//     and returns the measured trace; ExecuteSequential() is the same
//     executor at k = 1 — the no-overlap baseline that turns "pipelining
//     helps" from a simulator claim into a wall-clock measurement.
//
// The executor is a list scheduler. Its workers share one scan of the
// stream heads under one mutex, and a free worker takes the ready head with
// the lowest task id. Ids are topological — a task's dependencies and its
// stream predecessors all have lower ids — so the lowest unfinished task is
// always ready or running. Hence no k can deadlock, and at k = 1 the tasks
// run in id order.
//
// Because a task's closure mutates real buffers (and parameter-gradient
// accumulators), a Plan is single-shot: build a fresh Plan per execution.
package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// task is one schedulable operation: reporting metadata shared with the
// simulator plus the closure that does the real work.
type task struct {
	id     int
	label  string
	kind   string
	stream string
	est    float64 // modelled duration (ms) for Simulate
	fn     func() error
	deps   []int
}

// Binding is an inert per-stream record: the executor never reads it and
// no plan builder in this module sets it. It stays for the repository
// benchmark's dispatch probe, the last caller of BindStream and Bindings,
// which copies a plan's bindings onto its replica.
type Binding struct {
	Workers int
}

// RetryPolicy bounds the re-execution of tasks that fail with a
// retry-safe (fault.Transient) error: injected faults fire before the
// task body runs, and guarded collectives fail before their first byte
// moves, so a retried task always replays from clean buffers and the
// final result stays bit-identical to a fault-free run. Errors that are
// not classified transient — real task failures whose side effects are
// unknown — are never retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per task (1 or less
	// disables retry).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further retry
	// doubles it, capped at MaxBackoff. Zero values default to 100µs and
	// 5ms.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter adds a deterministic per-(task, attempt) fraction of the
	// backoff in [0, Jitter], decorrelating retries without introducing
	// run-to-run nondeterminism.
	Jitter float64
	// Kinds restricts retry to these task kinds (nil means every kind) —
	// the collective kinds in practice, whose closures are pure transfers.
	Kinds []string
	// Seed feeds the deterministic jitter.
	Seed uint64
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

// backoff returns the exponential, capped, deterministically jittered
// sleep before retrying attempt (0-based: the attempt that just failed).
func (r RetryPolicy) backoff(taskID, attempt int) time.Duration {
	base := r.BaseBackoff
	if base <= 0 {
		base = 100 * time.Microsecond
	}
	maxB := r.MaxBackoff
	if maxB <= 0 {
		maxB = 5 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > maxB || d <= 0 {
		d = maxB
	}
	if r.Jitter > 0 {
		// splitmix64 finalizer over (seed, task, attempt): stable across
		// runs, uncorrelated across tasks.
		x := r.Seed ^ (uint64(taskID)+1)*0x9E3779B97F4A7C15 ^ (uint64(attempt)+1)*0xD1B54A32D192ED03
		x += 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		frac := float64((x^(x>>31))>>11) / (1 << 53)
		d += time.Duration(float64(d) * r.Jitter * frac)
	}
	return d
}

// Plan is a schedule under construction: a DAG of executable tasks with
// stream assignments. Enqueue order per stream is the execution order, as
// on a CUDA stream and exactly as in sim.Graph.
type Plan struct {
	tasks    []*task
	streams  map[string][]int
	order    []string // stream names in first-use order
	bindings map[string]Binding
	injector *fault.Plan
	retry    RetryPolicy
	executed bool
}

// SetFaultPlan installs a deterministic fault injector consulted before
// every task attempt (nil removes it). Injection happens strictly before
// the task body runs, so transient faults never leave half-mutated
// buffers behind.
func (p *Plan) SetFaultPlan(fp *fault.Plan) { p.injector = fp }

// SetRetry installs the retry policy for transient task failures. The
// zero policy (the default) disables retry.
func (p *Plan) SetRetry(rp RetryPolicy) { p.retry = rp }

// NewPlan returns an empty schedule.
func NewPlan() *Plan {
	return &Plan{streams: make(map[string][]int)}
}

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

// Tasks returns the planned tasks in id order — the structural view
// calibration uses to pair each task's volume estimate with its measured
// duration (trace intervals expose kind and timing but not the estimate).
func (p *Plan) Tasks() []TaskInfo {
	out := make([]TaskInfo, len(p.tasks))
	for i, t := range p.tasks {
		out[i] = TaskInfo{ID: t.id, Label: t.label, Kind: t.kind, Stream: t.stream, Est: t.est, Deps: append([]int(nil), t.deps...)}
	}
	return out
}

// Add enqueues a task on a stream and returns its id. est is the modelled
// duration (ms) Simulate uses; fn is the real work Execute runs (nil is a
// zero-work marker). deps may reference only previously added tasks.
func (p *Plan) Add(label, kind, stream string, est float64, fn func() error, deps ...int) int {
	if est < 0 {
		panic(fmt.Sprintf("runtime: negative estimate for %q", label))
	}
	id := len(p.tasks)
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("runtime: task %q depends on unknown task %d", label, d))
		}
	}
	t := &task{id: id, label: label, kind: kind, stream: stream, est: est, fn: fn, deps: append([]int(nil), deps...)}
	p.tasks = append(p.tasks, t)
	if _, ok := p.streams[stream]; !ok {
		p.order = append(p.order, stream)
	}
	p.streams[stream] = append(p.streams[stream], id)
	return id
}

// Len returns the number of tasks.
func (p *Plan) Len() int { return len(p.tasks) }

// Streams returns the stream names in first-use order.
func (p *Plan) Streams() []string { return append([]string(nil), p.order...) }

// Simulate runs the plan's structure through the discrete-event engine
// using the tasks' estimated durations and returns the predicted trace.
// It does not touch the closures and may be called any number of times.
func (p *Plan) Simulate() *sim.Trace {
	return p.SimulateWith(nil)
}

// SimulateWith is Simulate with per-task durations overriding the
// estimates — the hook for "predict the pipelined makespan from measured
// sequential stage times". durations[i] replaces task i's estimate; a nil
// slice keeps every estimate, and NaN-free callers may mix (negative
// entries keep the estimate).
func (p *Plan) SimulateWith(durations []float64) *sim.Trace {
	g := sim.NewGraph()
	for _, t := range p.tasks {
		d := t.est
		if durations != nil && t.id < len(durations) && durations[t.id] >= 0 {
			d = durations[t.id]
		}
		g.Add(t.label, t.kind, t.stream, d, t.deps...)
	}
	return g.Run()
}

// markExecuted guards the single-shot contract.
func (p *Plan) markExecuted() error {
	if p.executed {
		return fmt.Errorf("runtime: plan already executed (plans are single-shot: closures mutate real buffers)")
	}
	p.executed = true
	return nil
}

// execState is the state the workers of one execution share. mu guards
// the incident log and the scheduling state: where each stream's queue
// stands and which tasks have finished.
type execState struct {
	// ctx is the caller's context with one more way to end: cancel, on a
	// permanent fault. Canceled, it stops new task bodies from being issued
	// (in-flight closures finish naturally) and cuts backoff and straggler
	// sleeps short; the workers still take every task, so the call returns
	// with no goroutine left behind.
	ctx     context.Context
	cancel  context.CancelFunc
	t0      time.Time
	timings []timing // per task, written by the worker that took it

	mu     sync.Mutex
	cond   sync.Cond // signalled when a head is ready for a waiting worker
	events []sim.Event
	queues [][]int // per stream, its task ids in enqueue order
	head   []int   // per stream, the position of its first untaken task
	busy   []bool  // per stream, one of its tasks is running
	done   []bool  // per task, finished (run, failed or skipped)
	left   int     // tasks not yet taken
}

func (e *execState) canceled() bool { return e.ctx.Err() != nil }

func (e *execState) record(ev sim.Event) {
	ev.AtMS = time.Since(e.t0).Seconds() * 1e3
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.mu.Unlock()
}

// sleep pauses for d unless cancellation arrives first; it reports
// whether the full pause completed.
func (e *execState) sleep(d time.Duration) bool {
	if d <= 0 {
		return !e.canceled()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-e.ctx.Done():
		return false
	}
}

// taskEvent pre-fills the identity fields of an incident on task t.
func taskEvent(typ string, t *task, attempt int, detail string) sim.Event {
	return sim.Event{Type: typ, TaskID: t.id, Label: t.label, Kind: t.kind, Stream: t.stream, Attempt: attempt, Detail: detail}
}

// runAttempts drives one task through injection, execution and bounded
// retry-with-backoff. Each attempt consults the injector BEFORE the task
// body, so injected transients never see mutated buffers; body errors are
// retried only when classified fault-transient (guarded collectives fail
// before their first byte moves, so they qualify). A permanent fault
// triggers cooperative cancellation of the whole plan.
func (p *Plan) runAttempts(e *execState, t *task) error {
	maxAttempts := p.retry.attempts()
	for attempt := 0; ; attempt++ {
		var err error
		if p.injector != nil {
			d := p.injector.Check(t.stream, t.kind, t.label, t.id, attempt)
			if d.Delay > 0 {
				e.record(taskEvent(sim.EventStraggler, t, attempt, d.Delay.String()))
				if !e.sleep(d.Delay) {
					return nil // canceled mid-delay; caller drains
				}
			}
			err = d.Err
		}
		if err == nil && t.fn != nil {
			err = t.fn()
		}
		if err == nil {
			return nil
		}
		wrapped := fmt.Errorf("runtime: task %q: %w", t.label, err)
		if fault.IsPermanent(err) {
			e.record(taskEvent(sim.EventFault, t, attempt, "permanent: "+err.Error()))
			e.cancel()
			return wrapped
		}
		if !fault.IsTransient(err) {
			return wrapped // real failure: side effects unknown, never retried
		}
		e.record(taskEvent(sim.EventFault, t, attempt, err.Error()))
		if attempt+1 >= maxAttempts || !p.retry.retryable(t.kind) || e.canceled() {
			return fmt.Errorf("%w (after %d attempts)", wrapped, attempt+1)
		}
		backoff := p.retry.backoff(t.id, attempt)
		e.record(taskEvent(sim.EventRetry, t, attempt+1, "backoff "+backoff.String()))
		if !e.sleep(backoff) {
			return nil // canceled mid-backoff; caller drains
		}
	}
}

// timing is one task's measured outcome.
type timing struct {
	start, finish time.Duration
	err           error
}

// runTask runs one task taken by a worker, or records it skipped once the
// execution is canceled.
func (p *Plan) runTask(e *execState, t *task) {
	tm := &e.timings[t.id]
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
func (e *execState) next(tasks []*task) (best int, more bool) {
	best, bestID := -1, 0
	for i, q := range e.queues {
		if e.busy[i] || e.head[i] == len(q) {
			continue
		}
		id := q[e.head[i]]
		if !e.depsDone(tasks[id]) {
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

func (e *execState) depsDone(t *task) bool {
	for _, d := range t.deps {
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
		i, more := e.next(p.tasks)
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
		p.runTask(e, p.tasks[id])
		e.mu.Lock()
		e.done[id] = true
		e.busy[i] = false
	}
	// Waiters see left == 0 and leave too.
	e.cond.Broadcast()
	e.mu.Unlock()
}

// execute runs the plan on k workers, the calling goroutine among them.
func (p *Plan) execute(ctx context.Context, k int) (*sim.Trace, error) {
	if err := p.markExecuted(); err != nil {
		return nil, err
	}
	e := &execState{
		t0:      time.Now(),
		timings: make([]timing, len(p.tasks)),
		queues:  make([][]int, len(p.order)),
		head:    make([]int, len(p.order)),
		busy:    make([]bool, len(p.order)),
		done:    make([]bool, len(p.tasks)),
		left:    len(p.tasks),
	}
	e.ctx, e.cancel = context.WithCancel(ctx)
	defer e.cancel()
	e.cond.L = &e.mu
	for i, name := range p.order {
		e.queues[i] = p.streams[name]
	}
	var wg sync.WaitGroup
	for range k - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(e)
		}()
	}
	p.work(e)
	wg.Wait()
	return p.finishTrace(ctx, e)
}

// finishTrace assembles the measured trace and the joined error set.
func (p *Plan) finishTrace(ctx context.Context, e *execState) (*sim.Trace, error) {
	var errs []error
	intervals := make([]sim.Interval, len(p.tasks))
	for i, t := range p.tasks {
		tm := e.timings[i]
		if tm.err != nil {
			errs = append(errs, tm.err)
		}
		intervals[i] = sim.Interval{
			Task:   sim.NewTask(t.id, t.label, t.kind, t.stream, t.deps),
			Start:  tm.start.Seconds() * 1e3,
			Finish: tm.finish.Seconds() * 1e3,
		}
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, fmt.Errorf("runtime: execution canceled: %w", err))
	}
	tr := sim.NewTrace(intervals, p.order)
	tr.Events = e.events
	return tr, errors.Join(errs...)
}

// Execute runs the plan for real with no deadline; see ExecuteCtx.
func (p *Plan) Execute() (*sim.Trace, error) {
	return p.ExecuteCtx(context.Background())
}

// ExecuteCtx runs the plan for real on k = min(GOMAXPROCS, streams)
// workers, the calling goroutine among them. A worker takes the ready
// stream head with the lowest task id — ready by sim.Graph.Run's start
// rule: its stream idle, its dependencies finished — so each stream runs
// one task at a time in enqueue order, and at most k task bodies run at
// once. The lowest unfinished task is always ready or running, so the
// workers never deadlock. The returned trace holds measured wall-clock
// intervals in milliseconds relative to the execution start.
//
// Failure semantics: an ordinary task error aborts nothing — streams
// drain fully and downstream tasks still run (their inputs may be
// garbage, which the caller must treat as fatal). A transient injected
// fault is retried under the plan's RetryPolicy with exponential backoff;
// a task's attempts run one after another on the worker that took it.
// A permanent fault, a ctx cancellation or an expired ctx deadline
// triggers cooperative cancellation instead: no further task bodies are
// issued, but the workers still take and skip every remaining task, so
// the call always returns with zero leaked goroutines. All task errors
// are collected and returned via errors.Join (plus the ctx error when
// cancellation came from outside).
func (p *Plan) ExecuteCtx(ctx context.Context) (*sim.Trace, error) {
	return p.execute(ctx, max(1, min(goruntime.GOMAXPROCS(0), len(p.order))))
}

// ExecuteSequential runs every closure one after another with no
// deadline; see ExecuteSequentialCtx.
func (p *Plan) ExecuteSequential() (*sim.Trace, error) {
	return p.ExecuteSequentialCtx(context.Background())
}

// ExecuteSequentialCtx is ExecuteCtx at k = 1: one worker, the calling
// goroutine, which always finds the lowest unfinished task ready and so
// runs the closures in task-id order with no cross-stream overlap — the
// measured baseline a pipelined Execute is compared against. The trace
// attributes each task to its declared stream so breakdowns stay
// comparable, and the fault decisions are keyed on task ids, so the same
// faults fire in both modes.
func (p *Plan) ExecuteSequentialCtx(ctx context.Context) (*sim.Trace, error) {
	return p.execute(ctx, 1)
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
