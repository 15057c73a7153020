// Telemetry: step a Zipf-skew-routed multi-rank world with a metrics
// sink attached, print the structured StepMetrics the runtime emits —
// overlap ratio, per-expert load with utilization entropy and imbalance,
// fault/retry tallies — fold them into a live registry, and export the
// measured backward plan as a Chrome trace_event file that loads in
// Perfetto or chrome://tracing.
//
//	go run ./examples/telemetry
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/fsmoe"
)

func main() {
	const (
		ranks  = 4
		m      = 64
		tokens = 256
	)
	// GateZipf routes tokens on a Zipf distribution — deterministic skew,
	// the workload per-expert load metrics exist to expose.
	layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{
		M: m, H: 128, Experts: 8, TopK: 2, CapacityFactor: 1.25,
		Gate: fsmoe.GateZipf, ZipfSkew: 1.1, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A registry sink folds every step's metrics into live instruments;
	// a SinkFunc can sit beside it for custom handling. Both see each
	// step exactly once.
	reg := fsmoe.NewTelemetry()
	world, err := fsmoe.NewWorld(layer, fsmoe.WorldConfig{
		Ranks: ranks, PipelineDegree: 2, BatchTokens: tokens,
		Sink: fsmoe.NewRegistrySink(reg),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	x := fsmoe.RandTensor(7, tokens, m)
	dy := fsmoe.RandTensor(8, tokens, m)
	var lastTraces []*fsmoe.Trace
	for step := 0; step < 3; step++ {
		res, err := world.Step(x, dy, fsmoe.StepConfig{LR: 0.01})
		if err != nil {
			log.Fatal(err)
		}
		sm := res.Metrics
		fmt.Printf("step %d (%s): wall %.1f ms, overlap %.2f (serial %.1f ms), tail %.1f ms\n",
			sm.Step, sm.Strategy, sm.WallMS, sm.OverlapRatio, sm.SerialMS, sm.TailMS)
		fmt.Printf("  expert tokens %v  entropy %.3f  imbalance %.2f  dropped %d\n",
			sm.ExpertTokens[0], sm.ExpertEntropy, sm.ExpertImbalance, sm.DroppedTokens)
		lastTraces = res.Traces
	}

	// The registry is a point-in-time snapshot away (and an expvar.Var:
	// expvar.Publish("fsmoe", reg) would serve it on /debug/vars).
	snap := reg.Snapshot()
	fmt.Printf("registry: %d steps recorded, step_ms histogram count %d\n",
		snap.Counters["step_total"], snap.Histograms["step_ms"].Count)

	// Export the last step's measured backward plans as one Chrome
	// trace_event document: one process per rank-trace, one thread row per
	// stream, fault/retry incidents as instant events.
	path := filepath.Join(os.TempDir(), "fsmoe_telemetry_trace.json")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, len(lastTraces))
	for i := range names {
		names[i] = fmt.Sprintf("bwd[%d]", i)
	}
	if err := fsmoe.WriteChromeTrace(f, names, lastTraces); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s — load it in Perfetto or chrome://tracing\n", path)
}
