package main

// The telemetry experiment drives the observability subsystem end to end
// on real compute: Zipf-skewed routing (the load distribution FlexMoE-style
// placement watches) stepped under every hard-routing strategy with a
// registry sink attached, reporting each step's structured metrics —
// overlap ratio, per-expert load entropy/imbalance, dropped tokens,
// gradient-sync tail — plus the live registry totals. With -pprof the same
// registry is served on /debug/vars while the run executes.

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"

	"repro/fsmoe"
	"repro/internal/report"
)

// benchTelemetry is the process-wide metrics registry: the telemetry
// experiment records into it and -pprof publishes it on /debug/vars.
var benchTelemetry = fsmoe.NewTelemetry()

// startDebugServer serves net/http/pprof and expvar on addr, with the
// bench registry published as the "fsmoe" expvar.
func startDebugServer(addr string) error {
	expvar.Publish("fsmoe", benchTelemetry)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go http.Serve(ln, nil)
	fmt.Printf("debug server on http://%s/debug/pprof/ (registry at /debug/vars)\n", ln.Addr())
	return nil
}

// telemetryExperiment steps a Zipf-routed layer once per strategy and
// tabulates the emitted StepMetrics.
func telemetryExperiment() error {
	const (
		ranks  = 4
		m      = 128
		h      = 64
		e      = 8
		tokens = 512
	)
	fmt.Printf("== telemetry: structured step metrics on the executable runtime (R=%d, Zipf-routed, skew 1.2) ==\n", ranks)
	sink := fsmoe.NewRegistrySink(benchTelemetry)
	tb := report.NewTable("one training step per strategy (capacity factor 1.2 — overflow drops are the signal)",
		"strategy", "r(f/b)", "wall ms", "tail ms", "overlap", "serial ms", "entropy", "imbalance", "dropped", "retries")
	for _, strat := range realpipeStrategies() {
		layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{
			M: m, H: h, Experts: e, TopK: 2, CapacityFactor: 1.2,
			Gate: fsmoe.GateZipf, ZipfSkew: 1.2, Seed: 13,
		})
		if err != nil {
			return err
		}
		wc := fsmoe.WorldConfig{
			Ranks: ranks, PipelineDegree: 2, Strategy: strat,
			BatchTokens: tokens, Sink: sink,
		}
		if strat == fsmoe.StrategyHybrid {
			wc.GroupSize = ranks / 2
		}
		w, err := fsmoe.NewWorld(layer, wc)
		if err != nil {
			return err
		}
		res, err := w.Step(fsmoe.RandTensor(91, tokens, m), fsmoe.RandTensor(92, tokens, m), fsmoe.StepConfig{LR: 0.01})
		if err != nil {
			w.Close()
			return err
		}
		sm := res.Metrics
		if sm == nil {
			w.Close()
			return fmt.Errorf("telemetry: sink configured but no StepMetrics emitted")
		}
		tb.AddRow(stratCell(strat, w.GroupSize()),
			fmt.Sprintf("%d/%d", sm.DegreeFwd, sm.DegreeBwd),
			fmt.Sprintf("%.1f", sm.WallMS),
			fmt.Sprintf("%.1f", sm.TailMS),
			fmt.Sprintf("%.2f", sm.OverlapRatio),
			fmt.Sprintf("%.1f", sm.SerialMS),
			fmt.Sprintf("%.3f", sm.ExpertEntropy),
			fmt.Sprintf("%.2f", sm.ExpertImbalance),
			sm.DroppedTokens,
			sm.Retries)
		if len(sm.ExpertTokens) > 0 {
			note("%s per-expert tokens: %v (sync hidden %.0f B, tail %.0f B; pool %d compute / %d comm workers)",
				stratCell(strat, w.GroupSize()), sm.ExpertTokens[0],
				sm.SyncHiddenBytes, sm.SyncTailBytes, sm.ComputeWorkers, sm.CommWorkers)
		}
		for i, tr := range res.Traces {
			captureTrace(fmt.Sprintf("telemetry %s bwd[%d]", stratCell(strat, w.GroupSize()), i), tr)
		}
		w.Close()
	}
	emit(tb)
	note("registry after the sweep: %s", benchTelemetry.String())
	note("overlap = serial task time / pipelined wall; entropy/imbalance are the pooled per-expert load stats (1 = balanced)")
	return nil
}
