package runtime

import (
	"context"
	"errors"
	"fmt"
	"maps"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/tensor"
)

// TestExecuteRespectsDeps builds a diamond A -> {B, C} -> D across three
// streams and checks the recorded completion order: no task may start
// before its dependencies finished.
func TestExecuteRespectsDeps(t *testing.T) {
	p := NewPlan()
	var order []int32
	var mu atomic.Int32
	record := func(id int32) func() error {
		return func() error {
			// mu serializes appends; contention is negligible here.
			for !mu.CompareAndSwap(0, 1) {
			}
			order = append(order, id)
			mu.Store(0)
			return nil
		}
	}
	a := p.Add("A", sim.KindPack, "s1", 1, record(0))
	b := p.Add("B", sim.KindPack, "s2", 1, record(1), a)
	c := p.Add("C", sim.KindPack, "s3", 1, record(2), a)
	d := p.Add("D", sim.KindPack, "s1", 1, record(3), b, c)
	_ = d
	tr, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("ran %d tasks, want 4", len(order))
	}
	pos := map[int32]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos[0] != 0 || pos[3] != 3 {
		t.Fatalf("dependency order violated: %v", order)
	}
	// Trace start/finish must be consistent with deps too.
	byID := map[int]sim.Interval{}
	for _, iv := range tr.Intervals {
		byID[iv.Task.ID] = iv
	}
	for _, iv := range tr.Intervals {
		for _, dep := range iv.Task.Deps {
			if byID[dep].Finish > iv.Start+1e-6 {
				t.Fatalf("task %d started at %.4f before dep %d finished at %.4f",
					iv.Task.ID, iv.Start, dep, byID[dep].Finish)
			}
		}
	}
}

// procs are the GOMAXPROCS values the executor-contract tests run under:
// k = 1, k = 2 and, on plans with enough streams, k = 4 workers.
var procs = []int{1, 2, 4}

// withProcs sets GOMAXPROCS to n for the rest of the (sub)test.
func withProcs(t *testing.T, n int) {
	prev := goruntime.GOMAXPROCS(n)
	t.Cleanup(func() { goruntime.GOMAXPROCS(prev) })
}

// occupancy wraps task bodies to record how many run at once, in all and
// per stream, the order each stream started its tasks in, and whether any
// started before one of its dependencies finished.
type occupancy struct {
	t              *testing.T
	inflight, peak atomic.Int32
	perStream      map[string]*atomic.Int32
	finished       []atomic.Bool // per task id
	mu             sync.Mutex
	started        map[string][]int
}

func newOccupancy(t *testing.T, tasks int) *occupancy {
	return &occupancy{t: t, perStream: map[string]*atomic.Int32{}, finished: make([]atomic.Bool, tasks), started: map[string][]int{}}
}

// add enqueues work on p's stream as a task depending on deps.
func (o *occupancy) add(p *Plan, stream string, work func(), deps ...int) int {
	if o.perStream[stream] == nil {
		o.perStream[stream] = new(atomic.Int32)
	}
	running, id := o.perStream[stream], p.Len()
	return p.Add("T", sim.KindPack, stream, 1, func() error {
		for _, d := range deps {
			if !o.finished[d].Load() {
				o.t.Errorf("task %d started before its dependency %d finished", id, d)
			}
		}
		if running.Add(1) > 1 {
			o.t.Errorf("stream %s ran two tasks at once", stream)
		}
		n := o.inflight.Add(1)
		for m := o.peak.Load(); n > m && !o.peak.CompareAndSwap(m, n); m = o.peak.Load() {
		}
		o.mu.Lock()
		o.started[stream] = append(o.started[stream], id)
		o.mu.Unlock()
		work()
		o.finished[id].Store(true)
		o.inflight.Add(-1)
		running.Add(-1)
		return nil
	}, deps...)
}

// check asserts the rest of the executor contract on a finished run: at
// most k bodies ran at once, and each stream started its tasks in enqueue
// order.
func (o *occupancy) check(p *Plan, k int) {
	o.t.Helper()
	if peak := o.peak.Load(); peak > int32(k) {
		o.t.Fatalf("%d task bodies ran at once on k = %d workers", peak, k)
	}
	for _, name := range p.g.Streams() {
		if got, want := fmt.Sprint(o.started[name]), fmt.Sprint(p.g.Queue(name)); got != want {
			o.t.Fatalf("stream %s started %v, enqueue order %v", name, got, want)
		}
	}
}

// TestExecuteStreamSerialization checks the executor contract at GOMAXPROCS
// 1, 2 and 4 on a gate task and six streams of three sleeping tasks, each
// stream's first task waiting on the gate: no two bodies of one stream ever
// run at once, each stream runs in enqueue order, no more than k bodies run
// at once, and at k ≥ 2 independent streams do overlap. A stream's tasks
// have consecutive ids, so the lowest-id rule alone would run them back to
// back; and the workers idle behind the gate must be woken when it finishes.
func TestExecuteStreamSerialization(t *testing.T) {
	const streams, perStream = 6, 3
	sleep := func() { time.Sleep(2 * time.Millisecond) }
	for _, n := range procs {
		t.Run(fmt.Sprintf("procs=%d", n), func(t *testing.T) {
			withProcs(t, n)
			p := NewPlan()
			o := newOccupancy(t, 1+streams*perStream)
			gate := o.add(p, "gate", sleep)
			for s := 0; s < streams; s++ {
				name := fmt.Sprintf("s%d", s)
				o.add(p, name, sleep, gate)
				for i := 1; i < perStream; i++ {
					o.add(p, name, sleep)
				}
			}
			if _, err := p.Execute(); err != nil {
				t.Fatal(err)
			}
			k := min(n, 1+streams)
			o.check(p, k)
			if k >= 2 && o.peak.Load() < 2 {
				t.Fatalf("independent streams never overlapped at k = %d", k)
			}
		})
	}
}

// TestExecuteContention drives Execute with more live streams than pool
// workers: six streams whose tasks all hammer one width-2 scoped tensor
// pool, a chain dependency per stream and a cross-stream barrier task.
// Under -race this pins that stream serialization, stream order, the k
// bound and dependency discipline survive worker contention: tasks blocked
// on the shared pool must not let a later task on their stream start.
func TestExecuteContention(t *testing.T) {
	const streams = 6
	for _, n := range procs {
		t.Run(fmt.Sprintf("procs=%d", n), func(t *testing.T) {
			withProcs(t, n)
			pool := tensor.NewPool(2) // deliberately fewer workers than live streams
			defer pool.Close()

			p := NewPlan()
			o := newOccupancy(t, 2*streams+1)
			cells := make([][]float64, streams)
			work := func(s int) func() {
				return func() {
					pool.ParallelFor(32, func(i int) {
						cells[s][i]++
					})
				}
			}
			lasts := make([]int, streams)
			for s := 0; s < streams; s++ {
				cells[s] = make([]float64, 32)
				name := fmt.Sprintf("st:%d", s)
				id := o.add(p, name, work(s))
				lasts[s] = o.add(p, name, work(s), id)
			}
			o.add(p, "st:0", work(0), lasts...) // the barrier

			if _, err := p.Execute(); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < streams; s++ {
				want := 2.0
				if s == 0 {
					want = 3 // the barrier task runs on stream 0
				}
				for i, v := range cells[s] {
					if v != want {
						t.Fatalf("stream %d cell %d = %v, want %v", s, i, v, want)
					}
				}
			}
			o.check(p, min(n, streams))
		})
	}
}

// goid returns the calling goroutine's id, from the "goroutine N [...]"
// header of runtime.Stack.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:goruntime.Stack(buf[:], false)]))[1]
}

// TestWorkerSetKeepsItsHelpers: at k = 2 and 4, every body of a k-stream
// plan waits until all k run at once, so the caller and k − 1 helpers each
// run one. Two successive executions on one set run their bodies on the
// same helper goroutines: an execution starts none. Close stops them.
func TestWorkerSetKeepsItsHelpers(t *testing.T) {
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			defer leakCheck(t)()
			set := NewWorkerSet(k)
			var arrived atomic.Int32
			var mu sync.Mutex
			ran := map[string]bool{}
			p := NewPlan()
			for i := range k {
				p.Add("T", sim.KindPack, fmt.Sprintf("s%d", i), 1, func() error {
					arrived.Add(1)
					for deadline := time.Now().Add(5 * time.Second); arrived.Load() < int32(k); goruntime.Gosched() {
						if time.Now().After(deadline) {
							return errors.New("fewer than k bodies ran at once")
						}
					}
					mu.Lock()
					ran[goid()] = true
					mu.Unlock()
					return nil
				})
			}
			caller := goid()
			var first map[string]bool
			for run := range 2 {
				arrived.Store(0)
				clear(ran)
				if _, err := p.ExecuteOn(context.Background(), set); err != nil {
					t.Fatal(err)
				}
				if !ran[caller] || len(ran) != k {
					t.Fatalf("execution %d ran its bodies on %v, want the caller %s and %d helpers", run, ran, caller, k-1)
				}
				if run == 0 {
					first = maps.Clone(ran)
				} else if !maps.Equal(ran, first) {
					t.Fatalf("the second execution ran on goroutines %v, the first on %v", ran, first)
				}
			}
			set.Close()
		})
	}
}

// TestSimulateMatchesSimGraph: the Plan's Simulate must agree exactly with
// a hand-built sim.Graph of the same structure.
func TestSimulateMatchesSimGraph(t *testing.T) {
	p := NewPlan()
	a := p.Add("A", sim.KindPack, "compute", 3, nil)
	b := p.Add("B", sim.KindPack, "inter", 2, nil, a)
	p.Add("C", sim.KindPack, "compute", 4, nil)
	p.Add("D", sim.KindPack, "inter", 1, nil, b)

	g := sim.NewGraph()
	ga := g.Add("A", sim.KindPack, "compute", 3)
	gb := g.Add("B", sim.KindPack, "inter", 2, ga)
	g.Add("C", sim.KindPack, "compute", 4)
	g.Add("D", sim.KindPack, "inter", 1, gb)

	if got, want := p.Simulate().Makespan, g.Run().Makespan; got != want {
		t.Fatalf("Simulate makespan %v, sim.Graph %v", got, want)
	}
}

// TestSimulateWithOverrides: per-task duration overrides replace the
// estimates; negative entries keep them.
func TestSimulateWithOverrides(t *testing.T) {
	p := NewPlan()
	a := p.Add("A", sim.KindPack, "s", 3, nil)
	p.Add("B", sim.KindPack, "s", 2, nil, a)
	if got := p.SimulateWith([]float64{10, -1}).Makespan; got != 12 {
		t.Fatalf("override makespan %v, want 12", got)
	}
	if got := p.Simulate().Makespan; got != 5 {
		t.Fatalf("estimate makespan %v, want 5", got)
	}
}

// TestExecuteSequentialRunsAllAndReplays: a plan is replayable. Executed
// three times — sequentially, on the k-worker executor, sequentially again —
// it runs every closure once per execution, each execution in a valid order
// (every task after its dependencies and its stream predecessor, and at
// k = 1 in id order), and each returns the plan's one trace with fresh
// intervals: a task that sleeps only in the second execution is long there
// and short in the others. An execution started from inside a running task
// fails without running anything, and the running execution completes.
func TestExecuteSequentialRunsAllAndReplays(t *testing.T) {
	p := NewPlan()
	run := 0
	var mu sync.Mutex
	var order []int
	var nested error
	var calls [5]atomic.Int32
	body := func(id int) func() error {
		return func() error {
			calls[id].Add(1)
			if id == 2 && run == 2 {
				time.Sleep(5 * time.Millisecond)
			}
			if id == 3 {
				_, nested = p.Execute()
			}
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil
		}
	}
	a := p.Add("A", sim.KindPack, "s1", 1, body(0))
	b := p.Add("B", sim.KindPack, "s2", 1, body(1), a)
	c := p.Add("C", sim.KindPack, "s2", 1, body(2))
	p.Add("D", sim.KindPack, "s1", 1, body(3), b, c)
	p.Add("E", sim.KindPack, "s3", 1, body(4))
	var first *sim.Trace
	for run = 1; run <= 3; run++ {
		order, nested = order[:0], nil
		exec := p.ExecuteSequential
		if run == 2 {
			exec = p.Execute
		}
		tr, err := exec()
		if err != nil {
			t.Fatalf("execution %d: %v", run, err)
		}
		if !errors.Is(nested, errRunning) {
			t.Fatalf("execution %d: nested Execute returned %v, want errRunning", run, nested)
		}
		for id := range calls {
			if got := calls[id].Load(); got != int32(run) {
				t.Fatalf("execution %d: task %d ran %d times in all, want %d", run, id, got, run)
			}
		}
		pos := map[int]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, iv := range tr.Intervals {
			for _, d := range iv.Task.Deps {
				if pos[d] > pos[iv.Task.ID] {
					t.Fatalf("execution %d: task %d ran before its dependency %d: %v", run, iv.Task.ID, d, order)
				}
			}
		}
		if pos[2] < pos[1] || pos[3] < pos[0] {
			t.Fatalf("execution %d: a stream ran out of enqueue order: %v", run, order)
		}
		if run != 2 && !slices.IsSorted(order) {
			t.Fatalf("execution %d: sequential order %v, want id order", run, order)
		}
		if first == nil {
			first = tr
		} else if tr != first {
			t.Fatalf("execution %d returned a new trace; a plan keeps one", run)
		}
		long := tr.Intervals[2].Finish-tr.Intervals[2].Start >= 5
		if long != (run == 2) {
			t.Fatalf("execution %d: task C took %.3f ms, stale or missing interval", run, tr.Intervals[2].Finish-tr.Intervals[2].Start)
		}
		if len(Durations(tr)) != 5 {
			t.Fatalf("execution %d: durations len %d, want 5", run, len(Durations(tr)))
		}
	}
}

// TestExecuteErrorPropagates: the first task error comes back with the
// task's label; all streams still drain.
func TestExecuteErrorPropagates(t *testing.T) {
	p := NewPlan()
	boom := errors.New("boom")
	var after atomic.Bool
	a := p.Add("bad", sim.KindPack, "s", 1, func() error { return boom })
	p.Add("after", sim.KindPack, "s", 1, func() error { after.Store(true); return nil }, a)
	_, err := p.Execute()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error %v, want wrapped boom", err)
	}
	if !after.Load() {
		t.Fatal("stream did not drain after the failing task")
	}
}

// TestAddRejectsMalformedTasks: Add is the one place a task is checked, so
// each malformed task panics there and leaves the plan as it was.
func TestAddRejectsMalformedTasks(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  func(p *Plan)
	}{
		{"unknown kind", func(p *Plan) { p.Add("mystery", "Mystery", "inter", 1, nil) }},
		{"negative estimate", func(p *Plan) { p.Add("ar", sim.KindAllReduce, "inter", -1, nil) }},
		{"forward dependency", func(p *Plan) { p.Add("ar", sim.KindAllReduce, "inter", 1, nil, p.Len()) }},
		{"negative dependency", func(p *Plan) { p.Add("ar", sim.KindAllReduce, "inter", 1, nil, -1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := wellFormedPlan()
			n := p.Len()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("malformed task accepted")
					}
				}()
				tc.add(p)
			}()
			if p.Len() != n || len(p.fns) != n {
				t.Fatalf("rejected task left %d tasks and %d closures, want %d", p.Len(), len(p.fns), n)
			}
		})
	}
}

// wellFormedPlan builds a small two-stream DAG using only canonical kinds.
func wellFormedPlan() *Plan {
	p := NewPlan()
	a := p.Add("pack", sim.KindPack, "compute:0", 1, nil)
	b := p.Add("a2a", sim.KindAlltoAll, "inter", 2, nil, a)
	p.Add("experts", sim.KindExperts, "compute:0", 3, nil, b)
	p.Add("ar", sim.KindAllReduce, "inter", 1, nil, b)
	return p
}

func TestPlanVerifyWellFormed(t *testing.T) {
	if err := wellFormedPlan().Verify(); err != nil {
		t.Fatalf("well-formed plan rejected: %v", err)
	}
}

// TestMeasuredIntervalsCarryPlanTasks: a measured trace reports each task
// as the plan does, its interval i holding task i's id, label, kind,
// stream and deps.
func TestMeasuredIntervalsCarryPlanTasks(t *testing.T) {
	p := wellFormedPlan()
	want := p.Tasks()
	tr, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Intervals) != len(want) {
		t.Fatalf("%d intervals for %d tasks", len(tr.Intervals), len(want))
	}
	for i, iv := range tr.Intervals {
		w, got := want[i], iv.Task
		if got.ID != w.ID || got.Label != w.Label || got.Kind != w.Kind || got.Stream != w.Stream ||
			fmt.Sprint(got.Deps) != fmt.Sprint(w.Deps) {
			t.Fatalf("interval %d task %+v, plan task %+v", i, *got, w)
		}
	}
}
