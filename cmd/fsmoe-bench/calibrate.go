package main

// The calibrate experiment closes the Algorithm-1 loop on this machine:
// fsmoe.Calibrate measures a strategy × degree sweep of the executable
// runtime on each realpipe workload, fits the per-kind cost coefficients
// from the measured stage times, and this experiment then compares three
// answers to "which strategy and pipeline degree should this layer run
// at" — Algorithm 1 on the testbed constants, Algorithm 1 on the
// calibrated profile, and the measured optimum of the sweep itself. Where
// the sweep shows a meaningful gap, the calibrated pick should land on
// (or within a few percent of) the measured optimum.

import (
	"fmt"

	"repro/fsmoe"
	"repro/internal/report"
	"repro/internal/tensor"
)

// calibrateDegrees is the sweep grid, matching the realpipe degree sweep.
func calibrateDegrees() []int { return []int{1, 2, 4, 8} }

// calibrateMatchTolerance: a pick is judged only when the sweep gap
// between best and worst degree (or between strategies) exceeds 5% —
// below that the choice is measurement noise, per the acceptance gate.
const calibrateMatchTolerance = 0.05

func calibrateExperiment() error {
	const ranks = 4
	fmt.Printf("== calibrate: measured-cost calibration of Algorithm 1 (R=%d in-process ranks) ==\n", ranks)
	note("GEMM kernel: %s — the expert stage times fitted below were measured on it (\"portable\": no AVX2, or a -tags purego build).", tensor.Kernel())
	for _, cfg := range realpipeConfigs() {
		layer, err := newRealpipeLayer(cfg)
		if err != nil {
			return err
		}
		cal, err := fsmoe.Calibrate(layer, fsmoe.CalibrateConfig{
			Ranks: ranks, Tokens: cfg.tokens, Degrees: calibrateDegrees(),
		})
		if err != nil {
			return err
		}
		emitCalibrationFits(cfg, cal)
		emitCalibrationSweep(cfg, cal)
		if err := emitCalibrationPicks(cfg, ranks, layer, cal); err != nil {
			return err
		}
	}
	note("calibrated picks run Algorithm 1 on cost models fitted from this machine's measured stage times;")
	note("testbed picks run it on Testbed A's modelled constants. best-r/best-strategy are the sweep's measured optima.")
	return nil
}

// emitCalibrationFits prints the per-kind fitted cost models.
func emitCalibrationFits(cfg realpipeConfig, cal *fsmoe.Calibration) {
	tb := report.NewTable(
		fmt.Sprintf("%s M=%d H=%d E=%d N=%d: fitted cost models (plan-estimate units)",
			cfg.name, cfg.m, cfg.h, cfg.e, cfg.tokens),
		"kind", "alpha_ms", "beta_ms_per_unit", "R2", "samples")
	for _, kind := range []string{fsmoe.KindAlltoAll, fsmoe.KindAllGather, fsmoe.KindReduceScatter, fsmoe.KindExperts, fsmoe.KindAllReduce} {
		f, ok := cal.Fits[kind]
		if !ok {
			continue
		}
		tb.AddRow(kind, fmt.Sprintf("%.4f", f.Alpha), fmt.Sprintf("%.3e", f.Beta),
			fmt.Sprintf("%.4f", f.R2), f.N)
	}
	emit(tb)
}

// emitCalibrationSweep prints the measured sweep: per (strategy, degree),
// the sequential baseline, the DES prediction from measured stage times,
// and the measured pipelined pass — the SimulateWith-vs-Execute fidelity
// table.
func emitCalibrationSweep(cfg realpipeConfig, cal *fsmoe.Calibration) {
	tb := report.NewTable(
		fmt.Sprintf("%s: calibration sweep, one fwd+bwd pass, ms", cfg.name),
		"strategy", "r", "sequential", "predicted-pipe", "measured-pipe")
	for _, p := range cal.Points {
		tb.AddRow(stratCell(p.Strategy, p.GroupSize), p.Degree,
			fmt.Sprintf("%.1f", p.SeqMS), fmt.Sprintf("%.1f", p.PredMS), fmt.Sprintf("%.1f", p.PipeMS))
	}
	emit(tb)
}

// sweepTimeAt returns the measured pipelined time of a sweep cell, or 0
// when the degree was outside the grid. Hybrid cells additionally match
// on the group size (g is ignored for the other strategies).
func sweepTimeAt(cal *fsmoe.Calibration, strat fsmoe.Strategy, g, degree int) float64 {
	for _, p := range cal.Points {
		if p.Strategy == strat && p.Degree == degree &&
			(strat != fsmoe.StrategyHybrid || p.GroupSize == g) {
			return p.PipeMS
		}
	}
	return 0
}

// sweepWorst returns the worst measured pipelined time for a strategy.
func sweepWorst(cal *fsmoe.Calibration, strat fsmoe.Strategy) float64 {
	worst := 0.0
	for _, p := range cal.Points {
		if p.Strategy == strat && p.PipeMS > worst {
			worst = p.PipeMS
		}
	}
	return worst
}

// emitCalibrationPicks compares testbed vs calibrated Algorithm-1 picks
// against the measured optimum, per strategy and overall.
func emitCalibrationPicks(cfg realpipeConfig, ranks int, layer *fsmoe.Layer, cal *fsmoe.Calibration) error {
	tb := report.NewTable(
		fmt.Sprintf("%s: Algorithm-1 degree picks vs the measured optimum", cfg.name),
		"strategy", "testbed r(fwd/bwd)", "calibrated r(fwd/bwd)", "best-r", "t(calibrated)/t(best)", "judged")
	for _, strat := range cal.Strategies() {
		wt, err := fsmoe.NewWorld(layer, fsmoe.WorldConfig{
			Ranks: ranks, Strategy: strat, BatchTokens: cfg.tokens,
		})
		if err != nil {
			return err
		}
		tf, tbw := wt.PipelineDegrees()
		wt.Close()
		wc, err := fsmoe.NewWorld(layer, fsmoe.WorldConfig{
			Ranks: ranks, Strategy: strat, BatchTokens: cfg.tokens, Calibration: cal,
		})
		if err != nil {
			return err
		}
		cf, cb := wc.PipelineDegrees()
		calG := wc.GroupSize()
		wc.Close()
		bestR, bestT := cal.MeasuredBest(strat)
		ratio := "n/a (off grid)"
		if t := sweepTimeAt(cal, strat, calG, cf); t > 0 && bestT > 0 {
			ratio = fmt.Sprintf("%.2f", t/bestT)
		}
		judged := "no (gap <5%)"
		if worst := sweepWorst(cal, strat); bestT > 0 && worst/bestT-1 >= calibrateMatchTolerance {
			judged = "yes"
		}
		tb.AddRow(stratCell(strat, calG),
			fmt.Sprintf("%d/%d", tf, tbw), fmt.Sprintf("%d/%d", cf, cb),
			bestR, ratio, judged)
	}
	emit(tb)

	// Overall strategy pick: StrategyAuto with and without the calibration
	// vs the measured best strategy.
	wt, err := fsmoe.NewWorld(layer, fsmoe.WorldConfig{Ranks: ranks, BatchTokens: cfg.tokens})
	if err != nil {
		return err
	}
	testbedPick := wt.Strategy()
	wt.Close()
	wc, err := fsmoe.NewWorld(layer, fsmoe.WorldConfig{Ranks: ranks, BatchTokens: cfg.tokens, Calibration: cal})
	if err != nil {
		return err
	}
	calPick := wc.Strategy()
	wc.Close()
	bestStrat, bestR, bestT := cal.MeasuredBestStrategy()
	gap := 0.0
	for _, s := range cal.Strategies() {
		if _, t := cal.MeasuredBest(s); t > 0 && bestT > 0 && t/bestT-1 > gap {
			gap = t/bestT - 1
		}
	}
	verdict := "gap <5%: either strategy is fine"
	if gap >= calibrateMatchTolerance {
		if calPick == bestStrat {
			verdict = "calibrated pick MATCHES the measured best"
		} else {
			verdict = "calibrated pick MISSES the measured best"
		}
	}
	note("%s: strategy pick — testbed-auto=%s calibrated-auto=%s measured-best=%s (r=%d, %.1f ms, gap %.0f%%): %s",
		cfg.name, testbedPick, calPick, bestStrat, bestR, bestT, 100*gap, verdict)
	return nil
}
