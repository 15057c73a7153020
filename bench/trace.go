package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded at a layer boundary.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the span that caused it, -1 for none
	step       int           // spans of one training step share its id; -1 outside steps
}

// tracer holds the traced run's spans and counts in memory; nothing is
// written until the run ends. All spans are recorded from the benchmark's
// own files, around its calls into each layer. A nil tracer records
// nothing, so the timed run shares code with the traced one at no cost.
type tracer struct {
	origin time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, step int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent, step: step})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.origin)
}

// count accumulates a counter measured at a boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] += v
}

// ms is span id's duration in milliseconds.
func (t *tracer) ms(id int) float64 {
	s := t.spans[id]
	return float64((s.end - s.start).Nanoseconds()) / 1e6
}

// selfMS returns every span's self time: its duration minus the part its
// direct children cover (children of one parent never overlap here — the
// benchmark is a single closed loop).
func (t *tracer) selfMS() []float64 {
	self := make([]float64, len(t.spans))
	for i := range t.spans {
		self[i] = t.ms(i)
	}
	for i, s := range t.spans {
		if s.parent >= 0 {
			self[s.parent] -= t.ms(i)
		}
	}
	return self
}

// traceEvent is one Chrome trace-event ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON (chrome://tracing and
// Perfetto load it) with the counts under otherData.
func (t *tracer) write(path string) error {
	self := t.selfMS()
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "step": s.step, "self_ms": self[i]},
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
