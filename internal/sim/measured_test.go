package sim

// Tests for the measured-trace surface: traces assembled with NewTrace from
// externally produced intervals (the runtime's bridge) rather than run
// through the simulator, carrying the fault events only measured
// executions have.

import "testing"

// measuredTrace assembles a small two-stream measured trace:
//
//	compute |AA..BBBB|   A [0,2)  B [4,8)
//	inter   |..CC....|   C [2,4)
func measuredTrace() *Trace {
	a := NewTask(0, "expertsA", KindExperts, StreamCompute, nil)
	c := NewTask(1, "a2a", KindAlltoAll, StreamInter, []int{0})
	b := NewTask(2, "expertsB", KindExperts, StreamCompute, []int{1})
	return NewTrace([]Interval{
		{Task: a, Start: 0, Finish: 2},
		{Task: c, Start: 2, Finish: 4},
		{Task: b, Start: 4, Finish: 8},
	}, []string{StreamCompute, StreamInter})
}

func TestMeasuredTraceMakespanAndBusy(t *testing.T) {
	tr := measuredTrace()
	if tr.Makespan != 8 {
		t.Fatalf("makespan = %v, want 8 (derived from interval finishes)", tr.Makespan)
	}
	busy := tr.StreamBusy()
	if busy[StreamCompute] != 6 || busy[StreamInter] != 2 {
		t.Fatalf("StreamBusy = %v, want compute=6 inter=2", busy)
	}
	bd := tr.Breakdown()
	if bd[KindExperts] != 6 || bd[KindAlltoAll] != 2 {
		t.Fatalf("Breakdown = %v, want Experts=6 AlltoAll=2", bd)
	}
}

func TestCriticalPathLowerBoundMeasured(t *testing.T) {
	tr := measuredTrace()
	// The bound is the busiest stream (compute: 6ms), and the measured
	// makespan (8ms: the A2A serializes the two expert chunks) must respect
	// it.
	if lb := tr.CriticalPathLowerBound(); lb != 6 {
		t.Fatalf("CriticalPathLowerBound = %v, want 6", lb)
	}
	if tr.CriticalPathLowerBound() > tr.Makespan {
		t.Fatalf("lower bound %v exceeds makespan %v", tr.CriticalPathLowerBound(), tr.Makespan)
	}

	// An empty measured trace bounds to zero.
	empty := NewTrace(nil, nil)
	if lb := empty.CriticalPathLowerBound(); lb != 0 {
		t.Fatalf("empty trace lower bound = %v, want 0", lb)
	}

	// Perfectly overlapped streams: the bound is tight.
	x := NewTask(0, "x", KindExperts, StreamCompute, nil)
	y := NewTask(1, "y", KindAlltoAll, StreamInter, nil)
	par := NewTrace([]Interval{
		{Task: x, Start: 0, Finish: 5},
		{Task: y, Start: 0, Finish: 5},
	}, []string{StreamCompute, StreamInter})
	if lb := par.CriticalPathLowerBound(); lb != par.Makespan {
		t.Fatalf("overlapped trace: bound %v should equal makespan %v", lb, par.Makespan)
	}
}

func TestMeasuredTraceEvents(t *testing.T) {
	tr := measuredTrace()
	tr.Events = []Event{
		{Type: EventFault, TaskID: 1, Kind: KindAlltoAll, Stream: StreamInter, AtMS: 2.5},
		{Type: EventRetry, TaskID: 1, Kind: KindAlltoAll, Stream: StreamInter, Attempt: 1, AtMS: 2.7},
		{Type: EventFault, TaskID: 2, Kind: KindExperts, Stream: StreamCompute, AtMS: 5},
	}
	if n := tr.EventCount(EventFault); n != 2 {
		t.Fatalf("EventCount(fault) = %d, want 2", n)
	}
	if n := tr.EventCount(EventRetry); n != 1 {
		t.Fatalf("EventCount(retry) = %d, want 1", n)
	}
	if n := tr.EventCount(EventSkip); n != 0 {
		t.Fatalf("EventCount(skip) = %d, want 0", n)
	}
}

func TestVocabCanonical(t *testing.T) {
	kinds := Kinds()
	if len(kinds) == 0 {
		t.Fatal("Kinds() is empty")
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if k == "" || seen[k] {
			t.Fatalf("Kinds() contains empty or duplicate entry: %v", kinds)
		}
		seen[k] = true
	}
	for _, want := range []string{KindAlltoAll, KindAllGather, KindReduceScatter, KindAllReduce, KindExperts} {
		if !seen[want] {
			t.Fatalf("Kinds() missing %q: %v", want, kinds)
		}
	}
	types := EventTypes()
	wantTypes := map[string]bool{EventFault: true, EventRetry: true, EventStraggler: true, EventSkip: true}
	for _, typ := range types {
		delete(wantTypes, typ)
	}
	if len(wantTypes) != 0 {
		t.Fatalf("EventTypes() missing %v (got %v)", wantTypes, types)
	}
}
