package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/internal/tensor"
)

func testTrace() *sim.Trace {
	t0 := sim.NewTask(0, "expert 0", sim.KindExperts, sim.StreamCompute, nil)
	t1 := sim.NewTask(1, "dispatch", sim.KindAlltoAll, sim.StreamInter, []int{0})
	t2 := sim.NewTask(2, "gather", sim.KindAllGather, sim.StreamIntra, []int{0})
	tr := sim.NewTrace([]sim.Interval{
		{Task: t0, Start: 0, Finish: 2},
		{Task: t1, Start: 2, Finish: 5},
		{Task: t2, Start: 2, Finish: 4},
	}, []string{sim.StreamCompute, sim.StreamInter, sim.StreamIntra})
	tr.Events = append(tr.Events, sim.Event{
		Type: sim.EventFault, TaskID: 1, Label: "dispatch", Kind: sim.KindAlltoAll,
		Stream: sim.StreamInter, Attempt: 1, AtMS: 3.5, Detail: "injected",
	}, sim.Event{
		Type: sim.EventRetry, TaskID: 1, Label: "dispatch", Kind: sim.KindAlltoAll,
		Stream: sim.StreamInter, Attempt: 2, AtMS: 3.6, Detail: "backoff 0.1ms",
	})
	return tr
}

func TestChromeTraceExport(t *testing.T) {
	data, err := ChromeTraceJSON("realpipe rank 0", testTrace())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	threads := map[int]string{}
	var complete, instants, faults int
	var labels string
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name == "thread_name" {
				threads[ev.TID] = ev.Args["name"].(string)
			}
			if ev.Name == "process_labels" {
				labels, _ = ev.Args["labels"].(string)
			}
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Fatalf("complete event %q has dur %v", ev.Name, ev.Dur)
			}
			if ev.Cat == "" {
				t.Fatalf("complete event %q has no category", ev.Name)
			}
		case "i":
			instants++
			if ev.Scope != "t" {
				t.Fatalf("instant %q scope = %q, want t", ev.Name, ev.Scope)
			}
			if ev.Cat == sim.EventFault || ev.Cat == sim.EventRetry {
				faults++
			}
		}
	}
	if want := "gemm kernel: " + tensor.Kernel(); labels != want {
		t.Fatalf("process labels = %q, want %q", labels, want)
	}
	// One thread row per stream.
	if len(threads) != 3 {
		t.Fatalf("thread rows = %d (%v), want 3 (one per stream)", len(threads), threads)
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	if faults != 2 {
		t.Fatalf("fault/retry instants = %d, want 2", faults)
	}
	// Thread rows are named by their stream, in sorted order.
	if threads[1] != sim.StreamCompute || threads[2] != sim.StreamInter || threads[3] != sim.StreamIntra {
		t.Fatalf("thread names %v, want the stream names in sorted order", threads)
	}

	// Timestamps are µs: the 2ms task must export dur 2000.
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" && ev.Name == "expert 0" && ev.Dur != 2000 {
			t.Fatalf("expert 0 dur = %v µs, want 2000", ev.Dur)
		}
	}
}

func TestChromeTraceBuilderMultiProcess(t *testing.T) {
	var b ChromeTraceBuilder
	b.AddTrace("rank 0", testTrace())
	b.AddTrace("rank 1", testTrace())
	b.AddTrace("nil is ignored", nil)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteTo output is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
	}
	if len(pids) != 2 {
		t.Fatalf("pids = %v, want 2 processes", pids)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var b ChromeTraceBuilder
	data, err := b.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatalf("traceEvents must be an array even when empty: %s", data)
	}
}
