package main

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"repro/fsmoe"
	"repro/internal/report"
)

// chaosWorkload is the small real-compute layer the chaos sweep hammers;
// one fwd+bwd pass runs per iteration per cell.
type chaosWorkload struct {
	m, h, e int
	tokens  int
	degree  int // pipeline degree r of every world
}

func chaosConfig() chaosWorkload {
	return chaosWorkload{m: 128, h: 64, e: 8, tokens: 512, degree: 2}
}

// chaosStrategies are the hard-routing strategies the sweep runs
// (DenseSlots routes differently). The hybrid rows run at GroupSize
// ranks/2 — the genuinely nested schedule; its degenerate group sizes are
// the EP and ESP rows themselves.
func chaosStrategies() []fsmoe.Strategy {
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

// newChaosWorld builds the workload's layer (fixed seed) and one world
// over it at the workload's pipeline degree; g is the hybrid group size,
// ignored by the other strategies.
func newChaosWorld(cfg chaosWorkload, ranks int, strat fsmoe.Strategy, g int) (*fsmoe.Layer, *fsmoe.World, error) {
	layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{
		M: cfg.m, H: cfg.h, Experts: cfg.e, TopK: 2, CapacityFactor: 1.2, Seed: 13,
	})
	if err != nil {
		return nil, nil, err
	}
	wc := fsmoe.WorldConfig{
		Ranks: ranks, PipelineDegree: cfg.degree, Strategy: strat, BatchTokens: cfg.tokens,
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

// chaosExperiment sweeps fault rate × strategy on the executable runtime:
// transient faults injected into every collective kind (at the task level
// and inside the collectives) are retried until the pass completes, and
// the sweep reports completion counts, retries spent, the p50/p99 pass
// times (retry backoff inflates the tail) and whether the surviving
// output stayed bit-identical to the fault-free pass. A second table
// downs a rank permanently and reports how degraded mode completed the
// step. The iters argument (the -sample flag) is the passes per cell.
func chaosExperiment(iters int) error {
	if iters < 1 {
		iters = 1
	}
	if iters > 32 {
		iters = 32
	}
	const ranks = 4
	cfg := chaosConfig()
	fmt.Printf("== chaos: seeded fault injection on the executable runtime (R=%d, %d pass(es) per cell) ==\n", ranks, iters)

	tb := report.NewTable("transient chaos sweep, one fwd+bwd pass per iteration",
		"strategy", "fault-rate", "passes", "completed", "faults", "retries", "p50 ms", "p99 ms", "bit-identical")
	for _, strat := range chaosStrategies() {
		layer, w, err := newChaosWorld(cfg, ranks, strat, ranks/2)
		if err != nil {
			return err
		}
		x := fsmoe.RandTensor(81, cfg.tokens, cfg.m)
		dy := fsmoe.RandTensor(82, cfg.tokens, cfg.m)

		// Fault-free reference pass; also warms the pools and workers.
		ref, _, _, _, err := chaosPass(layer, w, x, dy)
		if err != nil {
			w.Close()
			return err
		}
		for _, rate := range []float64{0, 0.01, 0.05} {
			var times []float64
			faults, retries, completed := 0, 0, 0
			identical := true
			for it := 0; it < iters; it++ {
				if rate > 0 {
					w.SetFaultPlan(fsmoe.NewFaultPlan(fsmoe.FaultSpec{
						Seed: uint64(1000*it + 7),
						KindProb: map[string]float64{
							fsmoe.KindAlltoAll:      rate,
							fsmoe.KindAllGather:     rate,
							fsmoe.KindReduceScatter: rate,
						},
						CollectiveProb:       rate,
						MaxTransientsPerTask: 2,
					}))
				} else {
					w.SetFaultPlan(nil)
				}
				y, t, f, r, err := chaosPass(layer, w, x, dy)
				if err != nil {
					w.Close()
					return err
				}
				completed++
				times = append(times, t)
				faults += f
				retries += r
				if it == 0 && rate > 0 {
					captureTrace(fmt.Sprintf("chaos %s rate=%.2f bwd", strat, rate), w.LastTrace())
				}
				if y.MaxAbsDiff(ref) != 0 {
					identical = false
				}
			}
			tb.AddRow(string(strat), fmt.Sprintf("%.3f", rate), iters, completed,
				faults, retries,
				fmt.Sprintf("%.1f", percentile(times, 50)),
				fmt.Sprintf("%.1f", percentile(times, 99)),
				identical)
		}
		w.SetFaultPlan(nil)
		if err := w.Close(); err != nil {
			return err
		}
	}
	emit(tb)
	note("fault-rate = per-attempt transient probability on every collective kind (task-level KindProb and in-collective CollectiveProb); " +
		"MaxTransientsPerTask=2 under the default 4-attempt retry budget, so every pass recovers")

	// Permanent rank-down: the pass must complete degraded, not abort.
	tb2 := report.NewTable("permanent rank-down mid-forward: degraded-mode completion",
		"strategy", "phase", "rank", "lost-experts", "rerouted", "dropped", "retries", "recovery-ms")
	for _, strat := range chaosStrategies() {
		layer, w, err := newChaosWorld(cfg, ranks, strat, ranks/2)
		if err != nil {
			return err
		}
		x := fsmoe.RandTensor(81, cfg.tokens, cfg.m)
		dy := fsmoe.RandTensor(82, cfg.tokens, cfg.m)
		w.SetFaultPlan(fsmoe.NewFaultPlan(fsmoe.FaultSpec{
			Seed: 5,
			Down: &fsmoe.FaultDown{Rank: 1, Kind: fsmoe.KindExperts},
		}))
		layer.ZeroGrad()
		_, cache, err := w.Forward(x, false)
		if err != nil {
			w.Close()
			return fmt.Errorf("chaos: degraded forward must complete: %w", err)
		}
		if _, err := w.Backward(cache, dy); err != nil {
			w.Close()
			return fmt.Errorf("chaos: degraded backward must complete: %w", err)
		}
		deg := w.LastDegraded()
		if deg == nil {
			w.Close()
			return fmt.Errorf("chaos: rank-down produced no DegradedResult (strategy %s)", strat)
		}
		captureTrace(fmt.Sprintf("chaos %s rank-down", strat), w.LastTrace())
		tb2.AddRow(string(strat), deg.Phase, deg.Rank, len(deg.LostExperts),
			deg.ReroutedTokens, deg.DroppedTokens, deg.Retries,
			fmt.Sprintf("%.1f", deg.RecoveryMS))
		if err := w.Close(); err != nil {
			return err
		}
	}
	emit(tb2)
	note("a permanent failure completes the pass degraded: the dead rank's tokens are re-routed into surviving experts' " +
		"free capacity (overflow dropped), dead experts freeze until ResetHealth; recovery-ms is the sequential fallback cost")

	// Elastic recovery: checkpoint, kill a rank, recover from the latest
	// snapshot onto the surviving topology, and keep stepping — reporting
	// the MTTR and the degraded/recovered step-time ratios against healthy.
	tb3 := report.NewTable("checkpoint → rank kill → elastic recovery (shrink): MTTR and step-time ratios",
		"strategy", "healthy ms", "degraded ms", "mttr ms", "recovered ms",
		"deg/healthy", "rec/healthy", "new ranks", "new strategy", "moved experts", "bit-identical")
	for _, strat := range chaosStrategies() {
		_, w, err := newChaosWorld(cfg, ranks, strat, ranks/2)
		if err != nil {
			return err
		}
		x := fsmoe.RandTensor(81, cfg.tokens, cfg.m)
		dy := fsmoe.RandTensor(82, cfg.tokens, cfg.m)
		dir, err := os.MkdirTemp("", "fsmoe-chaos-ckpt-")
		if err != nil {
			w.Close()
			return err
		}
		mgr := &fsmoe.CheckpointManager{Dir: dir, Keep: 2}
		stack := []*fsmoe.World{w}
		scfg := fsmoe.StepConfig{LR: 0.01, ChunkBytes: 64 << 10}
		ckptCfg := scfg
		ckptCfg.Checkpoint = mgr

		// done closes w and removes dir. It returns err joined with the
		// error of Close, which drains the last checkpoint commit and
		// returns its failure (ErrCheckpointCommit).
		done := func(err error) error {
			err = errors.Join(err, w.Close())
			os.RemoveAll(dir)
			return err
		}
		// Two healthy checkpointed steps: the first warms pools and
		// workers, the second is the healthy baseline.
		healthyMS := 0.0
		for s := 0; s < 2; s++ {
			res, err := fsmoe.StepStack(stack, x, dy, ckptCfg)
			if err != nil {
				return done(err)
			}
			healthyMS = res.ForwardMS + res.StepMS()
		}

		// Kill rank 1; the step survives degraded (checkpointing off, so
		// the pre-failure snapshot stays latest).
		w.SetFaultPlan(fsmoe.NewFaultPlan(fsmoe.FaultSpec{
			Seed: 5,
			Down: &fsmoe.FaultDown{Rank: 1, Kind: fsmoe.KindExperts},
		}))
		resDeg, err := fsmoe.StepStack(stack, x, dy, scfg)
		if err != nil {
			return done(fmt.Errorf("chaos: degraded step must complete: %w", err))
		}
		degradedMS := resDeg.ForwardMS + resDeg.StepMS()

		snap, err := mgr.LoadLatest()
		if err != nil {
			return done(err)
		}
		reports, err := fsmoe.Recover(stack, snap, fsmoe.RecoveryPolicy{Mode: fsmoe.RecoverShrink})
		if err != nil {
			return done(fmt.Errorf("chaos: recovery failed: %w", err))
		}
		rep := reports[0]
		resRec, err := fsmoe.StepStack(stack, x, dy, scfg)
		if err != nil {
			return done(fmt.Errorf("chaos: post-recovery step failed: %w", err))
		}
		recoveredMS := resRec.ForwardMS + resRec.StepMS()

		// Bit-identity: a fresh world built directly at the surviving
		// topology, restored from the same checkpoint, must step to the
		// identical replicas.
		_, refW, err := newChaosWorld(cfg, rep.NewRanks, rep.NewStrategy, rep.NewGroupSize)
		if err != nil {
			return done(err)
		}
		refStack := []*fsmoe.World{refW}
		identical := true
		if err := fsmoe.Restore(refStack, snap); err != nil {
			return done(errors.Join(err, refW.Close()))
		}
		resRef, err := fsmoe.StepStack(refStack, x, dy, scfg)
		if err != nil {
			return done(errors.Join(err, refW.Close()))
		}
		for r := range resRef.RankParams {
			for k := range resRef.RankParams[r] {
				if resRec.RankParams[r][k] != resRef.RankParams[r][k] {
					identical = false
				}
			}
		}
		if err := refW.Close(); err != nil {
			return done(err)
		}

		tb3.AddRow(string(strat),
			fmt.Sprintf("%.1f", healthyMS),
			fmt.Sprintf("%.1f", degradedMS),
			fmt.Sprintf("%.1f", rep.RecoveryMS),
			fmt.Sprintf("%.1f", recoveredMS),
			fmt.Sprintf("%.2f", ratio(degradedMS, healthyMS)),
			fmt.Sprintf("%.2f", ratio(recoveredMS, healthyMS)),
			rep.NewRanks, stratCell(rep.NewStrategy, rep.NewGroupSize), len(rep.MovedExperts), identical)
		if err := done(nil); err != nil {
			return err
		}
	}
	emit(tb3)
	note("mttr = wall time of the rebuild (state rollback + expert weight re-placement + topology swap); recovered steps run " +
		"on the surviving ranks under the same strategy (hybrid at g' = gcd(g, R')) bit-identically to a fresh restart from the same checkpoint")
	return nil
}

// ratio guards the step-time ratios against a degenerate zero baseline.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// chaosPass runs one fwd+bwd pass, returning the forward output, the
// summed measured makespans and the fault/retry event counts of both
// plans.
func chaosPass(layer *fsmoe.Layer, w *fsmoe.World, x, dy *fsmoe.Tensor) (*fsmoe.Tensor, float64, int, int, error) {
	layer.ZeroGrad()
	total, faults, retries := 0.0, 0, 0
	count := func() {
		if tr := w.LastTrace(); tr != nil {
			total += tr.Makespan
			faults += tr.EventCount(fsmoe.EventFault)
			retries += tr.EventCount(fsmoe.EventRetry)
		}
	}
	y, cache, err := w.Forward(x, false)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	count()
	if _, err := w.Backward(cache, dy); err != nil {
		return nil, 0, 0, 0, err
	}
	count()
	return y.Clone(), total, faults, retries, nil
}

// percentile returns the p-th percentile (nearest-rank) of times.
func percentile(times []float64, p float64) float64 {
	if len(times) == 0 {
		return 0
	}
	s := append([]float64(nil), times...)
	sort.Float64s(s)
	idx := int(float64(len(s))*p/100.0+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
