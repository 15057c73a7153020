// Package sim is a deterministic discrete-event simulator for stream-based
// schedules.
//
// It models exactly the execution substrate the paper reasons about in
// Figs. 3–4: each worker owns a small set of serialized resources ("streams"
// in CUDA terms — a compute stream, an intra-node communication stream and
// an inter-node NIC stream), tasks are enqueued on a stream in program
// order, and a task starts when both its stream is free and all of its
// dependencies have finished. Two inter-node operations can therefore never
// overlap each other (they share the NIC stream) while an inter-node and an
// intra-node operation can — the contention structure at the heart of
// FSMoE's inter/intra-node co-scheduling argument.
//
// The engine is exact and runs in one pass over the tasks and their
// dependencies: Add numbers tasks in order and accepts only dependencies on
// earlier ones, so a task's dependencies and its stream predecessor all
// have lower ids, and start(t) = max(finish(prev on stream), max
// finish(deps)) is known by the time t is reached in id order.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Task is one operation placed on a stream.
type Task struct {
	ID       int
	Label    string  // human-readable ("A2A-d[2]")
	Kind     string  // aggregation key for breakdowns ("AlltoAll")
	Stream   string  // resource name ("inter", "intra", "compute")
	Duration float64 // ms
	Deps     []int
}

// Graph is a schedule under construction: a DAG of tasks with stream
// assignments. Enqueue order per stream is the execution order, as on a
// CUDA stream.
type Graph struct {
	tasks   []*Task
	streams map[string][]int // stream name -> task ids in enqueue order
	order   []string         // stream names in first-use order
}

// NewGraph returns an empty schedule.
func NewGraph() *Graph {
	return &Graph{streams: make(map[string][]int)}
}

// Add enqueues a task on a stream and returns its id. deps may reference
// only previously added tasks.
func (g *Graph) Add(label, kind, stream string, duration float64, deps ...int) int {
	if duration < 0 {
		panic(fmt.Sprintf("sim: negative duration for %q", label))
	}
	id := len(g.tasks)
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("sim: task %q depends on unknown task %d", label, d))
		}
	}
	t := &Task{ID: id, Label: label, Kind: kind, Stream: stream, Duration: duration, Deps: append([]int(nil), deps...)}
	g.tasks = append(g.tasks, t)
	if _, ok := g.streams[stream]; !ok {
		g.order = append(g.order, stream)
	}
	g.streams[stream] = append(g.streams[stream], id)
	return id
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Task returns the task with the given id.
func (g *Graph) Task(id int) *Task { return g.tasks[id] }

// Streams returns the stream names in first-use order.
func (g *Graph) Streams() []string { return append([]string(nil), g.order...) }

// Queue returns the ids of a stream's tasks in enqueue order. The slice is
// the graph's own; callers must not modify it.
func (g *Graph) Queue(stream string) []int { return g.streams[stream] }

// Interval is one executed task in a trace.
type Interval struct {
	Task   *Task
	Start  float64
	Finish float64
}

// Event is one fault-injection or recovery incident observed during a
// measured execution: an injected failure, a retry of the failed task, an
// injected straggler delay, or a task skipped by cooperative cancellation.
// Simulated traces carry none; the runtime attaches them to measured
// traces so a chaos run's timeline and its incidents travel together.
type Event struct {
	Type    string // EventFault, EventRetry, EventStraggler, EventSkip
	TaskID  int
	Label   string
	Kind    string
	Stream  string
	Attempt int     // 0-based attempt the incident happened on
	AtMS    float64 // ms since execution start
	Detail  string
}

// Trace is the result of running a Graph.
type Trace struct {
	Intervals []Interval
	Makespan  float64
	// Events holds the fault/retry incidents of a measured execution in
	// occurrence order (empty for simulated traces and fault-free runs).
	Events  []Event
	streams []string
}

// EventCount returns how many recorded events have the given type.
func (tr *Trace) EventCount(typ string) int {
	n := 0
	for _, ev := range tr.Events {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// Run executes the schedule and returns its trace. It reads the graph
// only, so one graph can run any number of times.
func (g *Graph) Run() *Trace { return g.RunWith(nil) }

// RunWith is Run with durations[i] in place of task i's Duration. A nil or
// short slice, or a negative entry, keeps the task's own Duration.
func (g *Graph) RunWith(durations []float64) *Trace {
	tr := &Trace{Intervals: make([]Interval, len(g.tasks)), streams: g.Streams()}
	avail := make(map[string]float64, len(g.order))
	for i, t := range g.tasks {
		start := avail[t.Stream]
		for _, d := range t.Deps {
			if f := tr.Intervals[d].Finish; f > start {
				start = f
			}
		}
		d := t.Duration
		if i < len(durations) && durations[i] >= 0 {
			d = durations[i]
		}
		finish := start + d
		tr.Intervals[i] = Interval{Task: t, Start: start, Finish: finish}
		avail[t.Stream] = finish
		if finish > tr.Makespan {
			tr.Makespan = finish
		}
	}
	return tr
}

// NewTrace assembles a Trace from externally produced intervals — the
// bridge internal/runtime uses to report *measured* stream executions in
// the same vocabulary as simulated ones, so Gantt, Breakdown and StreamBusy
// work on both. streams lists the stream names in first-use order; the
// makespan is derived from the intervals.
func NewTrace(intervals []Interval, streams []string) *Trace {
	tr := &Trace{Intervals: intervals, streams: append([]string(nil), streams...)}
	for _, iv := range intervals {
		if iv.Finish > tr.Makespan {
			tr.Makespan = iv.Finish
		}
	}
	return tr
}

// Breakdown returns total busy time per task kind, the per-operation view
// Table 2 reports.
func (tr *Trace) Breakdown() map[string]float64 {
	out := map[string]float64{}
	for _, iv := range tr.Intervals {
		out[iv.Task.Kind] += iv.Finish - iv.Start
	}
	return out
}

// StreamBusy returns total busy time per stream.
func (tr *Trace) StreamBusy() map[string]float64 {
	out := map[string]float64{}
	for _, iv := range tr.Intervals {
		out[iv.Task.Stream] += iv.Finish - iv.Start
	}
	return out
}

// Gantt renders an ASCII timeline, one row per stream, width columns wide.
// Each task paints its label's first rune across its interval; idle time is
// '.'. It is the textual analogue of the paper's Fig. 3 diagrams.
func (tr *Trace) Gantt(width int) string {
	if width <= 0 {
		width = 80
	}
	if tr.Makespan == 0 {
		return "(empty schedule)\n"
	}
	scale := float64(width) / tr.Makespan
	var b strings.Builder
	byStream := map[string][]Interval{}
	for _, iv := range tr.Intervals {
		byStream[iv.Task.Stream] = append(byStream[iv.Task.Stream], iv)
	}
	names := append([]string(nil), tr.streams...)
	sort.Strings(names)
	nameW := 0
	for _, s := range names {
		if len(s) > nameW {
			nameW = len(s)
		}
	}
	for _, s := range names {
		row := make([]rune, width)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range byStream[s] {
			lo := int(iv.Start * scale)
			hi := int(iv.Finish * scale)
			if hi >= width {
				hi = width - 1
			}
			mark := '?'
			if iv.Task.Label != "" {
				mark = rune(iv.Task.Label[0])
			}
			for i := lo; i <= hi && i < width; i++ {
				row[i] = mark
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, s, string(row))
	}
	fmt.Fprintf(&b, "%-*s  makespan %.3f ms\n", nameW, "", tr.Makespan)
	return b.String()
}

// Canonical stream names used by the schedule builders in internal/core.
const (
	StreamCompute = "compute" // expert / attention / gate math (stream b in Fig. 3)
	StreamIntra   = "intra"   // NVLink / PCIe collectives (stream c)
	StreamInter   = "inter"   // NIC collectives: AlltoAll + Gradient-AllReduce (stream a)
)
