package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
	"repro/internal/tensor"
)

// Chrome trace-event export: any sim.Trace — DES-simulated or measured by
// runtime.Plan.Execute — serializes to the trace_event JSON format that
// chrome://tracing and Perfetto load directly. Each added trace becomes
// one "process" (named track group, labelled with the GEMM kernel this
// process runs — tensor.Kernel), each stream one named "thread" row,
// each task a complete ("X") duration event with its kind as the
// category, fault/retry/straggler/skip incidents instant ("i") events on
// the failing task's row, and per-stream resource bindings thread
// metadata — so the measured plan, its contention structure and its
// incidents travel in one standard artifact instead of an ASCII Gantt.
//
// Times: sim traces are in milliseconds; trace_event wants microseconds.
// All timestamps are scaled by 1000 on export.

// chromeEvent is one trace_event entry. Only the fields the format
// requires are emitted; zero-valued optionals are dropped.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope ("t" = thread)
	Args  map[string]any `json:"args,omitempty"`
}

// chromeDoc is the JSON-object flavor of the format (the array flavor is
// its TraceEvents field alone); the object flavor lets us pin the display
// unit.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTraceBuilder accumulates traces for one export. The zero value is
// ready to use.
type ChromeTraceBuilder struct {
	events []chromeEvent
	pids   int
}

// Len returns the number of events accumulated so far.
func (b *ChromeTraceBuilder) Len() int { return len(b.events) }

// AddTrace appends one trace as a new process named name. Streams become
// threads in sorted-name order; tasks carry their kind as the category
// and their label as the event name; trace events (fault/retry/straggler/
// skip incidents) become thread-scoped instant events at their recorded
// time; resource bindings annotate the owning thread's name and args.
func (b *ChromeTraceBuilder) AddTrace(name string, tr *sim.Trace) {
	if tr == nil {
		return
	}
	pid := b.pids
	b.pids++
	b.events = append(b.events, chromeEvent{
		Name: "process_name", Phase: "M", PID: pid,
		Args: map[string]any{"name": name},
	}, chromeEvent{
		// Shown beside the process name: a slow step on a host without
		// AVX2 says so in the trace itself.
		Name: "process_labels", Phase: "M", PID: pid,
		Args: map[string]any{"labels": "gemm kernel: " + tensor.Kernel()},
	})

	// Stable thread ids: streams in sorted order, starting at 1 (tid 0
	// renders oddly in some viewers).
	streams := map[string]bool{}
	for _, iv := range tr.Intervals {
		streams[iv.Task.Stream] = true
	}
	for _, ev := range tr.Events {
		streams[ev.Stream] = true
	}
	names := make([]string, 0, len(streams))
	for s := range streams {
		names = append(names, s)
	}
	sort.Strings(names)
	tids := make(map[string]int, len(names))
	for i, s := range names {
		tid := i + 1
		tids[s] = tid
		threadName := s
		args := map[string]any{}
		if r, ok := tr.Resources[s]; ok {
			threadName = fmt.Sprintf("%s (workers=%d", s, r.Workers)
			if r.Pinned {
				threadName += ", pinned"
			}
			threadName += ")"
			args["workers"] = r.Workers
			args["pinned"] = r.Pinned
		}
		b.events = append(b.events, chromeEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": threadName},
		})
		if len(args) > 0 {
			b.events = append(b.events, chromeEvent{
				Name: "stream resources", Phase: "i", TS: 0, PID: pid, TID: tid,
				Scope: "t", Args: args,
			})
		}
	}

	for _, iv := range tr.Intervals {
		dur := (iv.Finish - iv.Start) * 1e3
		ev := chromeEvent{
			Name:  iv.Task.Label,
			Cat:   iv.Task.Kind,
			Phase: "X",
			TS:    iv.Start * 1e3,
			Dur:   &dur,
			PID:   pid,
			TID:   tids[iv.Task.Stream],
		}
		if ev.Name == "" {
			ev.Name = fmt.Sprintf("task %d", iv.Task.ID)
		}
		if len(iv.Task.Deps) > 0 {
			ev.Args = map[string]any{"task_id": iv.Task.ID, "deps": iv.Task.Deps}
		} else {
			ev.Args = map[string]any{"task_id": iv.Task.ID}
		}
		b.events = append(b.events, ev)
	}

	for _, ev := range tr.Events {
		b.events = append(b.events, chromeEvent{
			Name:  fmt.Sprintf("%s: %s", ev.Type, ev.Label),
			Cat:   ev.Type,
			Phase: "i",
			TS:    ev.AtMS * 1e3,
			PID:   pid,
			TID:   tids[ev.Stream],
			Scope: "t",
			Args:  map[string]any{"kind": ev.Kind, "attempt": ev.Attempt, "detail": ev.Detail},
		})
	}
}

// MarshalJSON serializes the accumulated traces as a trace_event document
// (object flavor, displayTimeUnit=ms).
func (b *ChromeTraceBuilder) MarshalJSON() ([]byte, error) {
	doc := chromeDoc{TraceEvents: b.events, DisplayTimeUnit: "ms"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []chromeEvent{}
	}
	return json.MarshalIndent(doc, "", " ")
}

// WriteTo serializes the accumulated traces to w. It implements
// io.WriterTo.
func (b *ChromeTraceBuilder) WriteTo(w io.Writer) (int64, error) {
	data, err := b.MarshalJSON()
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// ChromeTraceJSON is the one-shot convenience: a single trace exported
// under the given track name.
func ChromeTraceJSON(name string, tr *sim.Trace) ([]byte, error) {
	var b ChromeTraceBuilder
	b.AddTrace(name, tr)
	return b.MarshalJSON()
}
