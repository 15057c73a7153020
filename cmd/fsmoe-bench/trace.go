package main

// -trace: an experiment that executes real stream plans (chaos)
// contributes its measured traces to one Chrome trace-event document,
// written at exit. Load the file in chrome://tracing or
// Perfetto: one process row group per captured pass, one thread row per
// stream, fault/retry incidents as instant events.

import (
	"fmt"
	"os"

	"repro/fsmoe"
)

// traceCapture collects measured traces for -trace; nil when disabled.
var traceCapture *fsmoe.ChromeTraceBuilder

// enableTraceCapture turns on trace collection for this run.
func enableTraceCapture() { traceCapture = &fsmoe.ChromeTraceBuilder{} }

// captureTrace records one measured trace under name. A no-op when -trace
// is off or the trace is nil, so callers capture unconditionally.
func captureTrace(name string, tr *fsmoe.Trace) {
	if traceCapture != nil && tr != nil {
		traceCapture.AddTrace(name, tr)
	}
}

// writeTraceCapture writes the collected trace_event document to path.
func writeTraceCapture(path string) error {
	if traceCapture == nil {
		return nil
	}
	if traceCapture.Len() == 0 {
		return fmt.Errorf("-trace %s: no measured traces captured (run chaos)", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := traceCapture.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d trace events)\n", path, traceCapture.Len())
	return nil
}
