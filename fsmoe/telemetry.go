package fsmoe

import "repro/internal/telemetry"

// Telemetry vocabulary: the observability surface of the executable
// runtime. A Telemetry registry holds live counters/gauges/histograms
// (race-safe, allocation-free on the hot path, its Snapshot JSON); a
// Sink receives one structured StepMetrics per completed training step;
// ChromeTrace converts measured traces into Perfetto-loadable trace_event
// JSON. See the package documentation (doc.go) for the ownership and
// threading rules.
type (
	// Telemetry is a named collection of live metric instruments; an
	// expvar.Func returning its Snapshot publishes it on /debug/vars.
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of every instrument.
	TelemetrySnapshot = telemetry.Snapshot
	// Sink consumes one StepMetrics per completed training step.
	Sink = telemetry.Sink
	// StepMetrics is the structured record of one training step: wall-time
	// decomposition, overlap ratio vs sequential, per-stream busy
	// fractions, per-expert routed token loads with utilization entropy
	// and imbalance factor, fault/retry/degraded tallies, resource-plan
	// occupancy and gradient-sync bytes.
	StepMetrics = telemetry.StepMetrics
	// RegistrySink records every StepMetrics into a Telemetry registry.
	RegistrySink = telemetry.RegistrySink
	// ChromeTraceBuilder accumulates traces for one trace_event export —
	// one process per added trace, one thread row per stream.
	ChromeTraceBuilder = telemetry.ChromeTraceBuilder
)

// NewTelemetry returns an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// NewRegistrySink wires a per-step sink to reg: step/fault counters,
// last-step gauges, a step-latency histogram and the per-expert load
// histogram. Its OnStep is allocation-free.
func NewRegistrySink(reg *Telemetry) *RegistrySink { return telemetry.NewRegistrySink(reg) }

// ChromeTraceJSON exports one measured (or simulated) trace as a
// chrome://tracing / Perfetto-loadable trace_event document under the
// given track name.
func ChromeTraceJSON(name string, tr *Trace) ([]byte, error) {
	return telemetry.ChromeTraceJSON(name, tr)
}
