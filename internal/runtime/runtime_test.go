package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
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
	a := p.Add("A", "k", "s1", 1, record(0))
	b := p.Add("B", "k", "s2", 1, record(1), a)
	c := p.Add("C", "k", "s3", 1, record(2), a)
	d := p.Add("D", "k", "s1", 1, record(3), b, c)
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
	return p.Add("T", "k", stream, 1, func() error {
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
	for _, name := range p.Streams() {
		if got, want := fmt.Sprint(o.started[name]), fmt.Sprint(p.streams[name]); got != want {
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

// TestSimulateMatchesSimGraph: the Plan's Simulate must agree exactly with
// a hand-built sim.Graph of the same structure.
func TestSimulateMatchesSimGraph(t *testing.T) {
	p := NewPlan()
	a := p.Add("A", "k", "compute", 3, nil)
	b := p.Add("B", "k", "inter", 2, nil, a)
	p.Add("C", "k", "compute", 4, nil)
	p.Add("D", "k", "inter", 1, nil, b)

	g := sim.NewGraph()
	ga := g.Add("A", "k", "compute", 3)
	gb := g.Add("B", "k", "inter", 2, ga)
	g.Add("C", "k", "compute", 4)
	g.Add("D", "k", "inter", 1, gb)

	if got, want := p.Simulate().Makespan, g.Run().Makespan; got != want {
		t.Fatalf("Simulate makespan %v, sim.Graph %v", got, want)
	}
}

// TestSimulateWithOverrides: per-task duration overrides replace the
// estimates; negative entries keep them.
func TestSimulateWithOverrides(t *testing.T) {
	p := NewPlan()
	a := p.Add("A", "k", "s", 3, nil)
	p.Add("B", "k", "s", 2, nil, a)
	if got := p.SimulateWith([]float64{10, -1}).Makespan; got != 12 {
		t.Fatalf("override makespan %v, want 12", got)
	}
	if got := p.Simulate().Makespan; got != 5 {
		t.Fatalf("estimate makespan %v, want 5", got)
	}
}

// TestExecuteSequentialRunsAllAndSingleShot: sequential execution runs
// every closure exactly once in id order, and a Plan refuses re-execution.
func TestExecuteSequentialRunsAllAndSingleShot(t *testing.T) {
	p := NewPlan()
	var calls atomic.Int32
	for i := 0; i < 5; i++ {
		p.Add("T", "k", "s", 1, func() error { calls.Add(1); return nil })
	}
	tr, err := p.ExecuteSequential()
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 {
		t.Fatalf("ran %d closures, want 5", calls.Load())
	}
	if len(Durations(tr)) != 5 {
		t.Fatalf("durations len %d, want 5", len(Durations(tr)))
	}
	if _, err := p.Execute(); err == nil {
		t.Fatal("re-executing a plan must fail")
	}
}

// TestExecuteErrorPropagates: the first task error comes back with the
// task's label; all streams still drain.
func TestExecuteErrorPropagates(t *testing.T) {
	p := NewPlan()
	boom := errors.New("boom")
	var after atomic.Bool
	a := p.Add("bad", "k", "s", 1, func() error { return boom })
	p.Add("after", "k", "s", 1, func() error { after.Store(true); return nil }, a)
	_, err := p.Execute()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error %v, want wrapped boom", err)
	}
	if !after.Load() {
		t.Fatal("stream did not drain after the failing task")
	}
}
