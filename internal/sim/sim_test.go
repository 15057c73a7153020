package sim

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSequentialSingleStream(t *testing.T) {
	g := NewGraph()
	g.Add("a", "x", "s", 1.0)
	g.Add("b", "x", "s", 2.0)
	g.Add("c", "x", "s", 3.0)
	tr := g.Run()
	if tr.Makespan != 6.0 {
		t.Fatalf("makespan = %v, want 6", tr.Makespan)
	}
}

func TestIndependentStreamsOverlap(t *testing.T) {
	g := NewGraph()
	g.Add("a", "x", "s1", 5.0)
	g.Add("b", "x", "s2", 3.0)
	tr := g.Run()
	if tr.Makespan != 5.0 {
		t.Fatalf("makespan = %v, want 5 (full overlap)", tr.Makespan)
	}
}

func TestDependencyAcrossStreams(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", "x", "s1", 5.0)
	g.Add("b", "x", "s2", 3.0, a)
	tr := g.Run()
	if tr.Makespan != 8.0 {
		t.Fatalf("makespan = %v, want 8", tr.Makespan)
	}
}

func TestStreamFIFOOrderEnforced(t *testing.T) {
	// Task "late" is enqueued first on the stream but depends on a slow
	// task; "early" is enqueued after and has no deps. A real CUDA stream
	// would block on "late" first — so must we.
	g := NewGraph()
	slow := g.Add("slow", "x", "other", 10.0)
	g.Add("late", "x", "s", 1.0, slow)
	g.Add("early", "x", "s", 1.0)
	tr := g.Run()
	if tr.Makespan != 12.0 {
		t.Fatalf("makespan = %v, want 12 (FIFO head-of-line blocking)", tr.Makespan)
	}
}

func TestDiamondDependency(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", "x", "s1", 1.0)
	b := g.Add("b", "x", "s2", 4.0, a)
	c := g.Add("c", "x", "s3", 2.0, a)
	g.Add("d", "x", "s1", 1.0, b, c)
	tr := g.Run()
	if tr.Makespan != 6.0 { // 1 + max(4,2) + 1
		t.Fatalf("makespan = %v, want 6", tr.Makespan)
	}
}

func TestPipelineOverlapMatchesClosedForm(t *testing.T) {
	// r chunks of (comm then compute) on two streams: classic software
	// pipeline. Makespan = comm + r*compute when compute >= comm.
	const r = 4
	const comm, compute = 1.0, 2.0
	g := NewGraph()
	prevComm := -1
	for i := 0; i < r; i++ {
		var deps []int
		c := g.Add("c", "comm", "comm", comm)
		if prevComm >= 0 {
			_ = prevComm // FIFO on the stream already serializes comm tasks
		}
		deps = append(deps, c)
		g.Add("e", "exp", "compute", compute, deps...)
		prevComm = c
	}
	tr := g.Run()
	want := comm + r*compute
	if math.Abs(tr.Makespan-want) > 1e-12 {
		t.Fatalf("makespan = %v, want %v", tr.Makespan, want)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph().Add("a", "x", "s", -1)
}

func TestUnknownDepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph().Add("a", "x", "s", 1, 5)
}

func TestBreakdownAggregation(t *testing.T) {
	g := NewGraph()
	g.Add("a", "comm", "s", 1.0)
	g.Add("b", "comm", "s", 2.0)
	g.Add("c", "gemm", "s", 3.0)
	tr := g.Run()
	bd := tr.Breakdown()
	if bd["comm"] != 3.0 || bd["gemm"] != 3.0 {
		t.Fatalf("breakdown = %v", bd)
	}
}

func TestStreamBusyAndLowerBound(t *testing.T) {
	g := NewGraph()
	g.Add("a", "x", "s1", 4.0)
	g.Add("b", "x", "s2", 7.0)
	tr := g.Run()
	if tr.CriticalPathLowerBound() != 7.0 {
		t.Fatalf("lower bound = %v", tr.CriticalPathLowerBound())
	}
	if tr.Makespan < tr.CriticalPathLowerBound() {
		t.Fatal("makespan below lower bound")
	}
}

// TestMakespanInvariantsProperty checks on random DAGs that (1) the
// makespan is at least the busiest stream, (2) at least the longest
// dependency chain, (3) no two tasks on one stream overlap, and (4) every
// task starts exactly when its stream predecessor and its dependencies
// have finished.
func TestMakespanInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		g := NewGraph()
		n := 2 + int(r.Uint64()%40)
		streams := []string{"s0", "s1", "s2"}
		chain := make([]float64, n) // longest path ending at task i
		longest := 0.0
		for i := 0; i < n; i++ {
			dur := r.Float64() * 5
			var deps []int
			depMax := 0.0
			for d := 0; d < i; d++ {
				if r.Float64() < 0.15 {
					deps = append(deps, d)
					if chain[d] > depMax {
						depMax = chain[d]
					}
				}
			}
			g.Add("t", "k", streams[int(r.Uint64()%uint64(len(streams)))], dur, deps...)
			chain[i] = depMax + dur
			if chain[i] > longest {
				longest = chain[i]
			}
		}
		tr := g.Run()
		if tr.Makespan < tr.CriticalPathLowerBound()-1e-9 {
			return false
		}
		if tr.Makespan < longest-1e-9 {
			return false
		}
		// No overlap within a stream.
		byStream := map[string][]Interval{}
		for _, iv := range tr.Intervals {
			byStream[iv.Task.Stream] = append(byStream[iv.Task.Stream], iv)
		}
		for _, ivs := range byStream {
			for i := 0; i < len(ivs); i++ {
				for j := i + 1; j < len(ivs); j++ {
					a, b := ivs[i], ivs[j]
					if a.Start < b.Finish-1e-9 && b.Start < a.Finish-1e-9 &&
						a.Finish-a.Start > 0 && b.Finish-b.Start > 0 {
						return false
					}
				}
			}
		}
		// Dependencies respected, and no task starts later than they and
		// its stream allow.
		avail := map[string]float64{}
		for _, iv := range tr.Intervals {
			start := avail[iv.Task.Stream]
			for _, d := range iv.Task.Deps {
				if tr.Intervals[d].Finish > iv.Start+1e-9 {
					return false
				}
				start = max(start, tr.Intervals[d].Finish)
			}
			if iv.Start != start {
				return false
			}
			avail[iv.Task.Stream] = iv.Finish
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds n tasks on three streams with random durations and
// dependencies; dur, when non-nil, overrides the random durations.
func randomGraph(seed uint64, n int, dur []float64) *Graph {
	r := xrand.New(seed)
	g := NewGraph()
	for i := 0; i < n; i++ {
		d := r.Float64() * 5
		if dur != nil {
			d = dur[i]
		}
		var deps []int
		for j := 0; j < i; j++ {
			if r.Float64() < 0.2 {
				deps = append(deps, j)
			}
		}
		g.Add("t", "k", []string{"s0", "s1", "s2"}[int(r.Uint64()%3)], d, deps...)
	}
	return g
}

// TestRunRepeatsAndRunWithMatchesFreshGraph: a graph keeps no schedule
// state, so a second Run repeats the first, and RunWith(durations) gives
// the intervals of a fresh graph built with those durations (a negative
// entry, or one past the slice's end, keeping the task's own).
func TestRunRepeatsAndRunWithMatchesFreshGraph(t *testing.T) {
	const n = 30
	g := randomGraph(7, n, nil)
	same := func(a, b *Trace) bool {
		if a.Makespan != b.Makespan || len(a.Intervals) != len(b.Intervals) {
			return false
		}
		for i, x := range a.Intervals {
			y := b.Intervals[i]
			if x.Start != y.Start || x.Finish != y.Finish || x.Task.ID != y.Task.ID ||
				x.Task.Stream != y.Task.Stream || !slices.Equal(x.Task.Deps, y.Task.Deps) {
				return false
			}
		}
		return true
	}
	first := g.Run()
	if !same(g.Run(), first) {
		t.Fatal("a second Run differs from the first")
	}
	durations := make([]float64, n-3) // the last three tasks keep their own
	want := make([]float64, n)
	for i := range want {
		want[i] = g.Task(i).Duration
		if i < len(durations) {
			durations[i] = float64(i%4) + 0.5
			if i%5 == 0 {
				durations[i] = -1 // keeps the task's own
			} else {
				want[i] = durations[i]
			}
		}
	}
	with := g.RunWith(durations)
	if !same(with, randomGraph(7, n, want).Run()) {
		t.Fatal("RunWith differs from a fresh graph built with its durations")
	}
	if same(with, first) || !same(g.Run(), first) {
		t.Fatal("RunWith's durations changed nothing, or changed the graph")
	}
}

func TestGanttRenders(t *testing.T) {
	g := NewGraph()
	a := g.Add("A2A", "a2a", StreamInter, 2.0)
	g.Add("EXP", "exp", StreamCompute, 3.0, a)
	tr := g.Run()
	out := tr.Gantt(40)
	if !strings.Contains(out, StreamInter) || !strings.Contains(out, StreamCompute) {
		t.Fatalf("gantt missing streams:\n%s", out)
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "E") {
		t.Fatalf("gantt missing task marks:\n%s", out)
	}
	if !strings.Contains(out, "makespan") {
		t.Fatalf("gantt missing makespan:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	tr := NewGraph().Run()
	if !strings.Contains(tr.Gantt(10), "empty") {
		t.Fatal("empty gantt should say so")
	}
}

func BenchmarkRun100Tasks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := NewGraph()
		prev := -1
		for j := 0; j < 100; j++ {
			var deps []int
			if prev >= 0 {
				deps = append(deps, prev)
			}
			prev = g.Add("t", "k", []string{"a", "b", "c"}[j%3], 1.0, deps...)
		}
		g.Run()
	}
}

// CriticalPathLowerBound returns max over streams of busy time — a lower
// bound on any legal makespan for this task set.
func (tr *Trace) CriticalPathLowerBound() float64 {
	lb := 0.0
	for _, busy := range tr.StreamBusy() {
		if busy > lb {
			lb = busy
		}
	}
	return lb
}
