package fsmoe

// Measured-cost calibration: the workflow that closes the Algorithm-1 loop
// on this machine instead of on testbed constants. Calibrate runs a short
// sweep — one measured sequential and one measured pipelined
// forward+backward pass of the executable World per strategy × pipeline
// degree — and least-squares-fits the §4.1 linear cost models
// (t = α + β·n per task kind) from the measured stage times, pairing each
// task's wall-clock duration with the volume estimate its plan carried.
// The fitted models live in the plans' own estimate units, and so do the
// per-strategy volume sets Calibrate extracts from the same plans, so the
// two sides of Algorithm 1 stay consistent by construction: feeding a
// *Calibration into WorldConfig.Calibration makes StrategyAuto and the
// automatic pipeline degrees optimize against what this machine actually
// did, the way auto-degrees already close their loop against what actually
// executes.

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/moe"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// Fitted is a calibrated linear cost model with its goodness of fit.
type Fitted = perfmodel.Fitted

// CalibrateConfig shapes the calibration sweep. The zero value measures at
// R=4 ranks, 1024 tokens, degrees {1, 2, 4, 8}, and every strategy the
// layer supports.
type CalibrateConfig struct {
	Ranks      int        // in-process world size (default 4)
	Tokens     int        // tokens per measured pass (default 1024)
	Degrees    []int      // pipeline degrees to sweep (default 1, 2, 4, 8)
	Strategies []Strategy // strategies to sweep (default: all the layer supports)
	Seed       uint64     // input/output-gradient seed (default 7)
}

// CalibrationPoint is one measured sweep cell: a (strategy, degree) pair's
// sequential baseline, the discrete-event prediction of the pipelined
// makespan from the measured sequential stage times (Plan.SimulateWith),
// and the measured pipelined execution. StrategyHybrid cells additionally
// carry their EP-group size, so the hybrid sweep is 2-D over
// (GroupSize, Degree); GroupSize is 0 for every other strategy. Pred vs
// Pipe is the §4 fidelity check; Pipe across degrees is the measured
// optimum the calibrated Algorithm 1 is judged against.
type CalibrationPoint struct {
	Strategy  Strategy
	GroupSize int
	Degree    int
	SeqMS     float64
	PredMS    float64
	PipeMS    float64
}

// Calibration is a machine profile fitted from measured stage times.
type Calibration struct {
	Ranks  int
	Tokens int
	// Fits holds the per-kind cost models recovered from the sweep, keyed
	// by trace kind ("AlltoAll", "AllGather", "ReduceScatter", "Experts",
	// "AllReduce"), in plan-estimate units.
	Fits map[string]Fitted
	// Points holds every measured sweep cell in execution order.
	Points []CalibrationPoint

	models core.Models
	vols   map[Strategy]core.Volumes
	hvols  map[int]core.Volumes // hybrid volumes per swept group size
	gemms  int                  // GEMMs per expert forward (scales Algorithm 1's α_exp)
}

// kindSamples accumulates (volume estimate, measured ms) pairs per kind.
type kindSamples struct{ xs, ys []float64 }

// Calibrate measures the layer's executable pipeline on this machine and
// fits its cost coefficients; see the package note above for the loop it
// closes. It is deliberately a short sweep — a few forward+backward passes
// per (strategy, degree) — not a training run.
func Calibrate(l *Layer, cfg CalibrateConfig) (*Calibration, error) {
	if l == nil {
		return nil, fmt.Errorf("fsmoe: Calibrate needs a layer")
	}
	if cfg.Ranks <= 0 {
		cfg.Ranks = 4
	}
	if cfg.Tokens <= 0 {
		cfg.Tokens = 1024
	}
	if len(cfg.Degrees) == 0 {
		cfg.Degrees = []int{1, 2, 4, 8}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = supportedStrategies(l)
	}

	cal := &Calibration{
		Ranks:  cfg.Ranks,
		Tokens: cfg.Tokens,
		Fits:   map[string]Fitted{},
		vols:   map[Strategy]core.Volumes{},
		hvols:  map[int]core.Volumes{},
		gemms:  2,
	}
	if l.cfg.Expert == ExpertMixtral {
		cal.gemms = 3
	}
	samples := map[string]*kindSamples{}
	x := RandTensor(cfg.Seed, cfg.Tokens, l.cfg.M)
	dy := RandTensor(cfg.Seed+1, cfg.Tokens, l.cfg.M)

	// Expand the strategy list into sweep cells: StrategyHybrid fans out
	// over the proper divisors of the rank count (its g=1 and g=Ranks
	// edges are the EP and ESP cells already swept), making the hybrid
	// part of the sweep 2-D over (group size × degree).
	type sweepCell struct {
		strat Strategy
		g     int
	}
	var cells []sweepCell
	for _, strat := range cfg.Strategies {
		if strat == StrategyHybrid {
			for _, g := range divisors(cfg.Ranks) {
				if g > 1 && g < cfg.Ranks {
					cells = append(cells, sweepCell{strat, g})
				}
			}
			continue
		}
		cells = append(cells, sweepCell{strat, 0})
	}

	for _, cell := range cells {
		strat := cell.strat
		for di, degree := range cfg.Degrees {
			w, err := NewWorld(l, WorldConfig{
				Ranks: cfg.Ranks, PipelineDegree: degree, Strategy: strat,
				GroupSize: cell.g, BatchTokens: cfg.Tokens,
			})
			if err != nil {
				return nil, fmt.Errorf("fsmoe: calibrate %s r=%d: %w", strat, degree, err)
			}
			// Warm the pools, free-lists and branch predictors off the record.
			if err := calibratePass(l, w, x, dy, nil); err != nil {
				w.Close()
				return nil, err
			}

			// Measured sequential pass: the per-task durations that feed both
			// the fits and the DES prediction of the pipelined makespan.
			w.SetSequential(true)
			var pt CalibrationPoint
			pt.Strategy, pt.GroupSize, pt.Degree = strat, cell.g, degree
			err = calibratePass(l, w, x, dy, func(p *StreamPlan, tr *Trace) {
				durations := runtime.Durations(tr)
				pt.SeqMS += tr.Makespan
				pt.PredMS += p.SimulateWith(durations).Makespan
				for _, ti := range p.Tasks() {
					if ti.Est <= 0 {
						continue // zero-est tasks carry no volume
					}
					ks := samples[ti.Kind]
					if ks == nil {
						ks = &kindSamples{}
						samples[ti.Kind] = ks
					}
					ks.xs = append(ks.xs, ti.Est)
					ks.ys = append(ks.ys, durations[ti.ID])
				}
				if di == 0 {
					cal.accumulateVolumes(strat, cell.g, p)
				}
			})
			if err != nil {
				w.Close()
				return nil, err
			}

			// Measured pipelined pass of the same plan shape.
			w.SetSequential(false)
			err = calibratePass(l, w, x, dy, func(p *StreamPlan, tr *Trace) {
				pt.PipeMS += tr.Makespan
			})
			w.Close()
			if err != nil {
				return nil, err
			}
			cal.Points = append(cal.Points, pt)
		}
	}

	if err := cal.fit(samples); err != nil {
		return nil, err
	}
	cal.fitAllReduce(cfg.Ranks)
	return cal, nil
}

// supportedStrategies lists the strategies a layer can execute: dense
// routers run DenseSlots only; hard routers run EP, plus ESP and Hybrid
// when every expert implements the staged contract natively (the hybrid sweep
// contributes cells only at rank counts with a proper divisor).
func supportedStrategies(l *Layer) []Strategy {
	if dr, ok := l.inner.Gate().(moe.DenseRouter); ok && dr.DenseRouting() {
		return []Strategy{StrategyDenseSlots}
	}
	if _, native := l.inner.Staged(); !native {
		return []Strategy{StrategyEP}
	}
	return []Strategy{StrategyEP, StrategyESP, StrategyHybrid}
}

// calibratePass runs one forward+backward pair and hands each phase's plan
// and trace to observe (nil = warmup).
func calibratePass(l *Layer, w *World, x, dy *Tensor, observe func(*StreamPlan, *Trace)) error {
	l.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		return err
	}
	if observe != nil {
		observe(w.LastPlan(), w.LastTrace())
	}
	if _, err := w.Backward(cache, dy); err != nil {
		return err
	}
	if observe != nil {
		observe(w.LastPlan(), w.LastTrace())
	}
	return nil
}

// accumulateVolumes folds one plan's per-kind volume estimates into the
// sweep cell's Algorithm-1 volume set — keyed by strategy, or by group
// size for hybrid cells — in the same estimate units the fits use.
// Conventions mirror the closed forms of §4.2: NA2A is the volume of
// ONE AlltoAll direction (each pass runs two), expert volume is per rank
// (the model's t_exp is a per-rank pipeline stage; the estimate sum counts
// every rank), and each phase contributes half of the AG/RS totals (one
// volume set serves both phases' searches, as with the testbed path).
func (c *Calibration) accumulateVolumes(strat Strategy, g int, p *StreamPlan) {
	var a2a, ag, rs, exp float64
	for _, ti := range p.Tasks() {
		switch ti.Kind {
		case moe.KindA2A:
			a2a += ti.Est
		case moe.KindAG:
			ag += ti.Est
		case moe.KindRS:
			rs += ti.Est
		case moe.KindExpert:
			exp += ti.Est
		}
	}
	v := c.vols[strat]
	if strat == StrategyHybrid {
		v = c.hvols[g]
	}
	v.NA2A += a2a / 4 // two directions per pass × two phases
	v.NAG += ag / 2
	v.NRS += rs / 2
	// Forward contributes the forward expert volume; the backward plan's
	// expert estimates already carry the 2× convention Algorithm 1 applies
	// itself, so only the forward phase's sum defines ExpMACs. Phases are
	// distinguished by arrival order: forward first (exp yet unset).
	if v.ExpMACs == 0 {
		v.ExpMACs = exp / float64(c.Ranks)
	}
	if v.ExpGEMMs == 0 {
		v.ExpGEMMs = c.gemms
	}
	// Nominal floors for the dense part, matching layerVolumes: the World
	// pipeline does not execute the surrounding dense block.
	v.DenseFwd, v.DenseBwd = 0.1, 0.2
	if strat == StrategyHybrid {
		c.hvols[g] = v
		return
	}
	c.vols[strat] = v
}

// fit least-squares-fits each kind's samples.
func (c *Calibration) fit(samples map[string]*kindSamples) error {
	for kind, ks := range samples {
		f, err := perfmodel.Fit(ks.xs, ks.ys)
		if err != nil {
			// A single-degree sweep yields one distinct volume per kind, so
			// the two-parameter fit degenerates; recover the slope through
			// the origin rather than failing the calibration.
			f = proportionalFit(ks.xs, ks.ys)
			if f.N == 0 {
				return fmt.Errorf("fsmoe: calibrate: fitting %s from %d samples: %w", kind, len(ks.xs), err)
			}
		}
		// A fitted α can come out slightly negative on noisy tiny samples;
		// clamp so ChunkTime stays monotone and non-negative.
		if f.Alpha < 0 {
			f.Alpha = 0
		}
		if f.Beta < 0 {
			f.Beta = 0
		}
		c.Fits[kind] = f
	}
	a2a := c.Fits[moe.KindA2A].Linear
	c.models = core.Models{
		A2A:     a2a,
		A2AFlat: a2a,
		AG:      c.Fits[moe.KindAG].Linear,
		RS:      c.Fits[moe.KindRS].Linear,
		GEMM:    c.Fits[moe.KindExpert].Linear,
		// In-process execution has no separate fabric to contend on; the
		// measured stage times already include whatever contention exists.
		IIOContention: 0,
	}
	return nil
}

// proportionalFit is the α=0 fallback when every sample shares one volume:
// β = Σy/Σx, R² unreported (0).
func proportionalFit(xs, ys []float64) Fitted {
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	if sx <= 0 {
		return Fitted{}
	}
	return Fitted{Linear: perfmodel.Linear{Beta: sy / sx}, N: len(xs)}
}

// fitAllReduce profiles the §5 Gradient-AllReduce directly (the sweep's
// backward plans carry no AllReduce unless a gradient syncer is
// installed): a ring all-reduce microbenchmark across a few sizes, fitted
// in the fp32-byte convention GradBytes uses.
func (c *Calibration) fitAllReduce(ranks int) {
	if ranks < 2 {
		// A one-rank ring moves nothing; keep the zero model (TAR(n>0)=0
		// matches what this machine would measure).
		c.Fits[KindAllReduce] = Fitted{}
		return
	}
	sizes := []int{1 << 13, 1 << 15, 1 << 17}
	xs := make([]float64, len(sizes))
	ys := make([]float64, len(sizes))
	for i, n := range sizes {
		data := make([][]float64, ranks)
		for r := range data {
			data[r] = make([]float64, n)
		}
		best := 0.0
		for rep := 0; rep < 2; rep++ {
			t0 := time.Now()
			if _, err := comm.RingAllReduce(data, ranks); err != nil {
				return // leave the zero model; budgets then assume free AR
			}
			if d := time.Since(t0).Seconds() * 1e3; rep == 0 || d < best {
				best = d
			}
		}
		xs[i] = 4 * float64(n) // fp32-byte convention of Expert.ParamBytes
		ys[i] = best
	}
	if f, err := perfmodel.Fit(xs, ys); err == nil {
		if f.Alpha < 0 {
			f.Alpha = 0
		}
		if f.Beta < 0 {
			f.Beta = 0
		}
		c.Fits[KindAllReduce] = f
		c.models.AR = f.Linear
	}
}

// KindAllReduce keys the Gradient-AllReduce fit in Calibration.Fits — the
// canonical sim vocabulary string (sim/vocab.go).
const KindAllReduce = sim.KindAllReduce

// Models returns the fitted scheduler models. They are in plan-estimate
// units and meant to be consumed through WorldConfig.Calibration (which
// pairs them with volumes in the same units), not mixed with
// byte-denominated testbed volumes.
func (c *Calibration) Models() Models { return c.models }

// volumes returns the measured Algorithm-1 volume set for a strategy the
// sweep covered.
func (c *Calibration) volumes(s Strategy) (core.Volumes, bool) {
	v, ok := c.vols[s]
	return v, ok
}

// hybridVolumes returns the measured volume set for one hybrid grid cell.
// The degenerate group sizes resolve to the pure strategies' measured
// volumes — those cells build the pure strategies' plans, so their
// measurements ARE the EP/ESP sweeps.
func (c *Calibration) hybridVolumes(g int) (core.Volumes, bool) {
	switch g {
	case 1:
		return c.volumes(StrategyEP)
	case c.Ranks:
		return c.volumes(StrategyESP)
	}
	v, ok := c.hvols[g]
	return v, ok
}

// HybridGroupSizes lists the hybrid group sizes the sweep measured, in
// sweep order.
func (c *Calibration) HybridGroupSizes() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range c.Points {
		if p.Strategy == StrategyHybrid && !seen[p.GroupSize] {
			seen[p.GroupSize] = true
			out = append(out, p.GroupSize)
		}
	}
	return out
}

// Strategies lists the strategies the sweep covered.
func (c *Calibration) Strategies() []Strategy {
	seen := map[Strategy]bool{}
	var out []Strategy
	for _, p := range c.Points {
		if !seen[p.Strategy] {
			seen[p.Strategy] = true
			out = append(out, p.Strategy)
		}
	}
	return out
}

// MeasuredBest returns the degree with the lowest measured pipelined
// forward+backward time for a strategy, and that time (0, 0 when the
// strategy was not swept).
func (c *Calibration) MeasuredBest(strat Strategy) (degree int, ms float64) {
	for _, p := range c.Points {
		if p.Strategy != strat {
			continue
		}
		if degree == 0 || p.PipeMS < ms {
			degree, ms = p.Degree, p.PipeMS
		}
	}
	return degree, ms
}

// PickDegree reconciles Algorithm 1's model-driven degree with the
// measured sweep: the model's pick survives when the sweep measured that
// degree within 5% of the strategy's best, so the closed form may refine
// between grid points it validated; otherwise — including when the model
// pick lies off the measured grid — the measured-best degree wins. The
// linear models cannot see that a machine lacks the cores to realize the
// overlap they assume (that is contention, not per-task cost), but the
// sweep measured it, so the measurement outranks the model.
func (c *Calibration) PickDegree(strat Strategy, modelR int) int {
	g := 0
	if strat == StrategyHybrid {
		// Without a group size, defer to the best hybrid cell overall.
		if bg, _, _ := c.MeasuredBestHybrid(); bg != 0 {
			g = bg
		}
	}
	return c.degreePick(strat, g, modelR)
}

// degreePick is PickDegree scoped to one sweep cell: hybrid picks match
// on the group size (its degenerate sizes resolving to the pure
// strategies' cells), so a g=2 world never defers to a g=4 measurement.
func (c *Calibration) degreePick(strat Strategy, g, modelR int) int {
	if strat != StrategyHybrid {
		g = 0
	} else {
		switch g {
		case 1:
			strat, g = StrategyEP, 0
		case c.Ranks:
			strat, g = StrategyESP, 0
		}
	}
	bestR, bestT := 0, 0.0
	for _, p := range c.Points {
		if p.Strategy != strat || p.GroupSize != g {
			continue
		}
		if bestR == 0 || p.PipeMS < bestT {
			bestR, bestT = p.Degree, p.PipeMS
		}
	}
	if bestR == 0 || bestT <= 0 {
		return modelR // cell never swept: nothing measured to defer to
	}
	for _, p := range c.Points {
		if p.Strategy == strat && p.GroupSize == g && p.Degree == modelR {
			if p.PipeMS <= bestT*1.05 {
				return modelR
			}
			break
		}
	}
	return bestR
}

// MeasuredBestHybrid returns the hybrid sweep cell (group size, degree)
// with the lowest measured pipelined forward+backward time (zeros when
// hybrid was never swept).
func (c *Calibration) MeasuredBestHybrid() (groupSize, degree int, ms float64) {
	for _, p := range c.Points {
		if p.Strategy != StrategyHybrid {
			continue
		}
		if degree == 0 || p.PipeMS < ms {
			groupSize, degree, ms = p.GroupSize, p.Degree, p.PipeMS
		}
	}
	return groupSize, degree, ms
}

// MeasuredBestStrategy returns the strategy with the lowest measured
// pipelined time at its own best degree.
func (c *Calibration) MeasuredBestStrategy() (strat Strategy, degree int, ms float64) {
	for _, s := range c.Strategies() {
		if d, t := c.MeasuredBest(s); strat == "" || t < ms {
			strat, degree, ms = s, d, t
		}
	}
	return strat, degree, ms
}
