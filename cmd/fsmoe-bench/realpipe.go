package main

import (
	"fmt"
	goruntime "runtime"

	"repro/fsmoe"
	"repro/internal/report"
	"repro/internal/runtime"
)

// realpipeConfig is one workload the executable runtime measures — the
// real-computable corner of the Table 4 grid (M × H sweep at fixed E,
// comm-heavy vs compute-heavy regimes).
type realpipeConfig struct {
	name    string
	m, h, e int
	tokens  int
	degree  int // pipeline degree r for the fixed-degree comparison
}

func realpipeConfigs() []realpipeConfig {
	return []realpipeConfig{
		{name: "comm-heavy", m: 256, h: 64, e: 8, tokens: 1024, degree: 4},
		{name: "compute-heavy", m: 128, h: 512, e: 8, tokens: 1024, degree: 4},
	}
}

// realpipeStrategies are the hard-routing strategies the executable
// runtime can compare on one workload (DenseSlots routes differently and
// is exercised by the strategies bench instead). The hybrid rows run at
// GroupSize ranks/2 — the genuinely nested schedule; its degenerate group
// sizes are the EP and ESP rows themselves.
func realpipeStrategies() []fsmoe.Strategy {
	return []fsmoe.Strategy{fsmoe.StrategyEP, fsmoe.StrategyESP, fsmoe.StrategyHybrid}
}

// stratCell renders a strategy for a report row, with the hybrid group
// size when there is one.
func stratCell(s fsmoe.Strategy, g int) string {
	if s == fsmoe.StrategyHybrid && g > 0 {
		return fmt.Sprintf("%s(g=%d)", s, g)
	}
	return string(s)
}

// realpipe runs the executable stream runtime for real, per parallel
// strategy: for each workload it executes one forward+backward pass of
// the multi-rank World at R=4 three ways — sequentially (no overlap),
// pipelined on real streams (measured), and through the discrete-event
// simulator fed the measured sequential stage durations (predicted) —
// then sweeps the pipeline degree grid and reports Algorithm 1's chosen
// degree against the measured-optimal one. This is the §4 claim end to
// end: the same schedule artifact is simulated and executed, per
// strategy, and the degree the scheduler picks should track the degree
// that actually wins.
func realpipe() error {
	const ranks = 4
	fmt.Printf("== realpipe: measured vs simulated pipelining on the real-compute path (R=%d in-process ranks) ==\n", ranks)
	tb := report.NewTable("one fwd+bwd pass, ms (sequential = no-overlap baseline)",
		"workload", "strategy", "r", "sequential", "simulated-pipe", "measured-pipe", "speedup")
	for _, cfg := range realpipeConfigs() {
		for _, strat := range realpipeStrategies() {
			row, err := runRealpipe(cfg, ranks, strat)
			if err != nil {
				return err
			}
			tb.AddRow(row...)
		}
	}
	emit(tb)
	note("simulated-pipe = DES makespan of the same stream plan with measured sequential stage durations")

	if err := realpipeDegreeSweep(ranks); err != nil {
		return err
	}
	if err := realpipeHybridGrid(ranks); err != nil {
		return err
	}
	if n := goruntime.GOMAXPROCS(0); n < 2 {
		note("note: GOMAXPROCS=%d — streams cannot run in parallel on this machine, so measured-pipe "+
			"cannot realize the overlap; simulated-pipe shows what a multi-core runner achieves.", n)
	}
	return nil
}

// newRealpipeLayer builds a workload's layer with the fixed seed every
// realpipe-family experiment (including calibrate) shares.
func newRealpipeLayer(cfg realpipeConfig) (*fsmoe.Layer, error) {
	return fsmoe.NewLayer(fsmoe.LayerConfig{
		M: cfg.m, H: cfg.h, Experts: cfg.e, TopK: 2, CapacityFactor: 1.2, Seed: 13,
	})
}

// newRealpipeWorld builds one world for a workload; degree 0 asks
// Algorithm 1. Hybrid worlds run at GroupSize ranks/2, the interior grid
// cell the strategy comparison is about.
func newRealpipeWorld(cfg realpipeConfig, ranks, degree int, strat fsmoe.Strategy) (*fsmoe.Layer, *fsmoe.World, error) {
	return newRealpipeHybridWorld(cfg, ranks, degree, strat, ranks/2)
}

// newRealpipeHybridWorld is newRealpipeWorld with an explicit hybrid
// group size (ignored by the other strategies).
func newRealpipeHybridWorld(cfg realpipeConfig, ranks, degree int, strat fsmoe.Strategy, g int) (*fsmoe.Layer, *fsmoe.World, error) {
	layer, err := newRealpipeLayer(cfg)
	if err != nil {
		return nil, nil, err
	}
	wc := fsmoe.WorldConfig{
		Ranks: ranks, PipelineDegree: degree, Strategy: strat, BatchTokens: cfg.tokens,
	}
	if strat == fsmoe.StrategyHybrid {
		wc.GroupSize = g
	}
	w, err := fsmoe.NewWorld(layer, wc)
	if err != nil {
		return nil, nil, err
	}
	return layer, w, nil
}

// measurePass runs one fwd+bwd pass and returns the summed makespans plus
// the plans/traces of the two phases.
func measurePass(layer *fsmoe.Layer, w *fsmoe.World, x, dy *fsmoe.Tensor) (float64, []*fsmoe.StreamPlan, []*fsmoe.Trace, error) {
	layer.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		return 0, nil, nil, err
	}
	plans := []*fsmoe.StreamPlan{w.LastPlan()}
	traces := []*fsmoe.Trace{w.LastTrace()}
	total := w.LastTrace().Makespan
	if _, err = w.Backward(cache, dy); err != nil {
		return 0, nil, nil, err
	}
	plans = append(plans, w.LastPlan())
	traces = append(traces, w.LastTrace())
	total += w.LastTrace().Makespan
	return total, plans, traces, nil
}

// runRealpipe measures one (workload, strategy) pair at the fixed sweep
// degree and returns its report row.
func runRealpipe(cfg realpipeConfig, ranks int, strat fsmoe.Strategy) ([]any, error) {
	layer, w, err := newRealpipeWorld(cfg, ranks, cfg.degree, strat)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	x := fsmoe.RandTensor(71, cfg.tokens, cfg.m)
	dy := fsmoe.RandTensor(72, cfg.tokens, cfg.m)

	// Warm up pools and the worker fleet once.
	if _, _, _, err := measurePass(layer, w, x, dy); err != nil {
		return nil, err
	}

	// Sequential baseline: same plan, no overlap; its per-task durations
	// feed the simulator's prediction of the pipelined makespan.
	w.SetSequential(true)
	seq, plans, traces, err := measurePass(layer, w, x, dy)
	if err != nil {
		return nil, err
	}
	sim := 0.0
	for i, p := range plans {
		sim += p.SimulateWith(runtime.Durations(traces[i])).Makespan
	}

	// Measured pipelined execution.
	w.SetSequential(false)
	pipe, _, ptraces, err := measurePass(layer, w, x, dy)
	if err != nil {
		return nil, err
	}
	for i, phase := range []string{"fwd", "bwd"} {
		if i < len(ptraces) {
			captureTrace(fmt.Sprintf("realpipe %s %s %s", cfg.name, stratCell(strat, w.GroupSize()), phase), ptraces[i])
		}
	}

	return []any{
		fmt.Sprintf("%s M=%d H=%d E=%d N=%d", cfg.name, cfg.m, cfg.h, cfg.e, cfg.tokens),
		stratCell(strat, w.GroupSize()),
		cfg.degree,
		fmt.Sprintf("%.1f", seq),
		fmt.Sprintf("%.1f", sim),
		fmt.Sprintf("%.1f", pipe),
		fmt.Sprintf("%.2fx", seq/pipe),
	}, nil
}

// realpipeDegreeSweep executes every workload × strategy across the
// degree grid and prints Algorithm 1's per-phase choice next to the
// measured-optimal degree.
func realpipeDegreeSweep(ranks int) error {
	degrees := []int{1, 2, 4, 8}
	fmt.Println("== realpipe degree sweep: Algorithm 1's choice vs the measured optimum ==")
	header := []string{"workload", "strategy", "algo1-r(fwd/bwd)"}
	for _, r := range degrees {
		header = append(header, fmt.Sprintf("r=%d", r))
	}
	header = append(header, "best-r")
	tb := report.NewTable("one fwd+bwd pass per degree, ms (measured, pipelined)", header...)
	for _, cfg := range realpipeConfigs() {
		x := fsmoe.RandTensor(73, cfg.tokens, cfg.m)
		dy := fsmoe.RandTensor(74, cfg.tokens, cfg.m)
		for _, strat := range realpipeStrategies() {
			// Algorithm 1's per-phase choice for this workload + strategy.
			_, auto, err := newRealpipeWorld(cfg, ranks, 0, strat)
			if err != nil {
				return err
			}
			autoF, autoB := auto.PipelineDegrees()
			label := stratCell(strat, auto.GroupSize())
			auto.Close()

			row := []any{cfg.name, label, fmt.Sprintf("%d/%d", autoF, autoB)}
			bestR, bestT := 0, 0.0
			for _, r := range degrees {
				layer, w, err := newRealpipeWorld(cfg, ranks, r, strat)
				if err != nil {
					return err
				}
				if _, _, _, err := measurePass(layer, w, x, dy); err != nil { // warmup
					w.Close()
					return err
				}
				t, _, _, err := measurePass(layer, w, x, dy)
				w.Close()
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.1f", t))
				if bestR == 0 || t < bestT {
					bestR, bestT = r, t
				}
			}
			row = append(row, bestR)
			tb.AddRow(row...)
		}
	}
	emit(tb)
	note("algo1-r = Algorithm 1's forward/backward degrees on the strategy-specific volumes (Testbed A models)")
	return nil
}

// realpipeHybridGrid executes every workload across the full 2-D hybrid
// grid — every divisor group size × every pipeline degree — and prints
// the measured cells next to the 2-D Algorithm-1 pick (the group size and
// per-phase degrees a hybrid world with everything unset chooses). The
// g=1 and g=4 rows are the pure EP and ESP schedules — one builder reads g
// as data — so the grid's edges double as the strategy comparison.
func realpipeHybridGrid(ranks int) error {
	degrees := []int{1, 2, 4, 8}
	fmt.Println("== realpipe hybrid grid: measured (group size × degree) cells vs the 2-D Algorithm-1 pick ==")
	header := []string{"workload", "g"}
	for _, r := range degrees {
		header = append(header, fmt.Sprintf("r=%d", r))
	}
	header = append(header, "best-r")
	tb := report.NewTable("one fwd+bwd pass per cell, ms (measured, pipelined)", header...)
	for _, cfg := range realpipeConfigs() {
		x := fsmoe.RandTensor(75, cfg.tokens, cfg.m)
		dy := fsmoe.RandTensor(76, cfg.tokens, cfg.m)

		// The 2-D Algorithm-1 pick: group size and per-phase degrees of a
		// hybrid world with GroupSize and degrees unset.
		_, auto, err := newRealpipeHybridWorld(cfg, ranks, 0, fsmoe.StrategyHybrid, 0)
		if err != nil {
			return err
		}
		pickG, pickF, pickB := auto.GroupSize(), 0, 0
		pickF, pickB = auto.PipelineDegrees()
		auto.Close()

		bestG, bestR, bestT := 0, 0, 0.0
		for g := 1; g <= ranks; g++ {
			if ranks%g != 0 {
				continue
			}
			row := []any{cfg.name, g}
			rowBestR, rowBestT := 0, 0.0
			for _, r := range degrees {
				layer, w, err := newRealpipeHybridWorld(cfg, ranks, r, fsmoe.StrategyHybrid, g)
				if err != nil {
					return err
				}
				if _, _, _, err := measurePass(layer, w, x, dy); err != nil { // warmup
					w.Close()
					return err
				}
				t, _, _, err := measurePass(layer, w, x, dy)
				w.Close()
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.1f", t))
				if rowBestR == 0 || t < rowBestT {
					rowBestR, rowBestT = r, t
				}
			}
			row = append(row, rowBestR)
			tb.AddRow(row...)
			if bestG == 0 || rowBestT < bestT {
				bestG, bestR, bestT = g, rowBestR, rowBestT
			}
		}
		note("%s: Algorithm-1 2-D pick g=%d r=%d/%d; measured best cell (g=%d, r=%d, %.1f ms)",
			cfg.name, pickG, pickF, pickB, bestG, bestR, bestT)
	}
	emit(tb)
	note("g=1 rows are the pure-EP schedule and g=4 rows the pure-ESP schedule (the same plan builder at the same g)")
	return nil
}
