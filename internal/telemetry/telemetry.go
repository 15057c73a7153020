// Package telemetry is the measurement substrate of the executable
// runtime: a lightweight metrics registry (counters, gauges, fixed-bucket
// histograms — race-safe and allocation-free on the hot path), structured
// per-step metrics emitted by the training loop, and a Chrome trace-event
// exporter that turns any sim.Trace — DES-simulated or measured — into a
// Perfetto/chrome://tracing-loadable timeline.
//
// The paper's whole argument (§3.2, §6.2) rests on measuring where a
// step's time goes; this package makes those measurements machine-readable
// per step instead of ad-hoc ASCII tables, and adds the per-expert routing
// load signal (FlexMoE) that dynamic expert placement needs.
//
// Threading and ownership: instruments returned by a Registry are shared
// handles — any goroutine may Add/Set/Observe concurrently, and Snapshot
// may run concurrently with writers (it reads atomically, not
// transactionally). A Sink is invoked synchronously from the goroutine
// that finished the step, never concurrently with itself for one World
// stack; implementations that fan out to files or sockets must do their
// own buffering. The caller owns the Sink's lifetime: nothing in this
// package retains it past the step that emitted to it.
package telemetry

// Sink consumes one structured StepMetrics record per completed training
// step. OnStep is called synchronously after the step's SGD update, from
// the stepping goroutine; the metrics value is fully formed and owned by
// the sink (the runtime never mutates it afterwards). A nil Sink on the
// World disables per-step emission entirely — the guard is a single nil
// check, so unconfigured telemetry adds no allocations to the step path.
type Sink interface {
	OnStep(m *StepMetrics)
}
