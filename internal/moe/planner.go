package moe

// This file is the planner: what NewWorld resolves a configuration to —
// the group width every strategy names (widths), and StrategyAuto, an open
// hybrid and the unset pipeline degrees through one (g × r) grid of §4.4's
// Algorithm 1 — and the byte volumes both it and the §5 partition of every
// step (step.go) price a layer by.

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/topology"
)

// The planner's cost model, defined once: Algorithm 1 (the StrategyAuto
// grid and the automatic pipeline degrees) and the §5 partition of every
// step plan on Testbed A's fitted §4.1 models, with the pipeline degree
// capped at core.MaxPipelineDegree. The models describe the paper's
// cluster, not the machine the worlds run on.
var plannerModels = core.ModelsFromCluster(topology.TestbedA())

// The accounting units of every volume the planner derives: fp16
// activations on the wire, fp32 master gradients. The executable buffers are
// float64; planning runs in the simulator's units.
const (
	actElemBytes  = 2
	gradElemBytes = 4
)

// resolve turns a configuration into the one a World executes, defaults
// applied, and the expert-sharding group width g it executes at. When the
// strategy leaves more than one width open (widths) or the forward degree is
// unset, Algorithm 1 runs per phase on each open width's volumes and the
// width with the least summed forward and backward time wins — one g serves
// both phases, the degrees stay per-phase (§4.4). StrategyAuto then names
// the winner (EP at g = 1, ESP at g = R, Hybrid between) and an open hybrid
// takes it as its GroupSize. fwd and bwd are the winner's Algorithm-1
// results; a phase whose degree was configured reports the zero value.
func resolve(l *MOELayer, cfg WorldConfig) (rc WorldConfig, g int, fwd, bwd core.DegreeResult, err error) {
	if cfg.BatchTokens <= 0 {
		cfg.BatchTokens = 4096
	}
	if cfg.Algo == "" {
		cfg.Algo = comm.A2ADirect
	}
	if cfg.GPUsPerNode <= 0 {
		cfg.GPUsPerNode = cfg.Ranks
	}
	gs, err := widths(cfg)
	if err != nil {
		return cfg, 0, fwd, bwd, err
	}
	g = gs[0]
	var pickF, pickB core.DegreeResult
	if len(gs) > 1 || cfg.PipelineDegree == 0 {
		for i, w := range gs {
			f, b := phaseDegrees(volumes(l, cfg.BatchTokens, cfg.Ranks, w))
			if i == 0 || f.TMoE+b.TMoE < pickF.TMoE+pickB.TMoE {
				g, pickF, pickB = w, f, b
			}
		}
	}
	switch cfg.Strategy {
	case StrategyAuto:
		cfg.Strategy, cfg.GroupSize = StrategyHybrid, g
		switch g {
		case 1:
			cfg.Strategy, cfg.GroupSize = StrategyEP, 0
		case cfg.Ranks:
			cfg.Strategy, cfg.GroupSize = StrategyESP, 0
		}
	case StrategyHybrid:
		cfg.GroupSize = g
	}

	degF, degB := cfg.PipelineDegree, cfg.PipelineDegreeBwd
	if degF == 0 {
		fwd, degF = pickF, pickF.R
		// An explicit backward degree overrides Algorithm 1's choice even
		// in auto mode; bwd then stays the zero value.
		if degB == 0 {
			bwd, degB = pickB, pickB.R
		}
	}
	cfg.PipelineDegree = max(degF, 1)
	if degB < 1 {
		degB = cfg.PipelineDegree
	}
	cfg.PipelineDegreeBwd = degB
	return cfg, g, fwd, bwd, nil
}

// widths is the one switch from a strategy to the expert-sharding group
// widths it allows at cfg.Ranks: EP and DenseSlots g = 1, ESP g = R, a
// Hybrid its GroupSize, and StrategyAuto or a Hybrid without a GroupSize
// every divisor of R, ascending — the degenerate edges are the pure
// strategies' plans. A GroupSize must divide the rank count inside [1, R];
// the expert contract holds at every width, and Recover re-places a hybrid
// at gcd(g, R′). Errors name the strategy and the unsupported combination.
func widths(cfg WorldConfig) ([]int, error) {
	r, g := cfg.Ranks, cfg.GroupSize
	switch cfg.Strategy {
	case StrategyEP, StrategyDenseSlots:
		return []int{1}, nil
	case StrategyESP:
		return []int{r}, nil
	case StrategyAuto:
		return divisors(r), nil
	case StrategyHybrid:
		switch {
		case g == 0:
			return divisors(r), nil
		case g < 1 || g > r:
			return nil, fmt.Errorf("moe: strategy %q needs GroupSize in [1, %d] (the rank count), got GroupSize=%d",
				StrategyHybrid, r, g)
		case r%g != 0:
			return nil, fmt.Errorf("moe: strategy %q needs GroupSize dividing the rank count, got %d ranks over GroupSize=%d",
				StrategyHybrid, r, g)
		}
		return []int{g}, nil
	}
	return nil, fmt.Errorf("moe: unknown parallel strategy %q (valid: %s, %s, %s, %s)",
		cfg.Strategy, StrategyEP, StrategyESP, StrategyDenseSlots, StrategyHybrid)
}

// routesDense reports whether the layer's gate declares dense routing
// (DenseRouter).
func (l *MOELayer) routesDense() bool {
	dr, ok := l.cfg.Gate.(DenseRouter)
	return ok && dr.DenseRouting()
}

// divisors returns the divisors of n in ascending order — the widths an
// n-rank world can shard experts at.
func divisors(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// phaseDegrees runs Algorithm 1 for both phases on one volume set, on the
// planner's cost model.
func phaseDegrees(v core.Volumes) (f, b core.DegreeResult) {
	f = plannerModels.FindOptimalPipelineDegree(v, 0, core.Forward, core.MaxPipelineDegree)
	b = plannerModels.FindOptimalPipelineDegree(v, 0, core.Backward, core.MaxPipelineDegree)
	return f, b
}

// expertWork is the one pass over a layer's experts both volume derivations
// share, each expert given n rows: the summed forward MACs, the summed
// hidden-exchange width (averaged over the forward and backward band counts:
// Mixtral exchanges two backward bands), and the GEMMs one expert runs.
type expertWork struct {
	macs, hidden float64
	gemms        int
}

func (l *MOELayer) expertWork(n int) expertWork {
	w := expertWork{gemms: 2}
	if _, ok := l.cfg.Experts[0].(*MixtralFFN); ok {
		w.gemms = 3
	}
	for _, e := range l.cfg.Experts {
		w.macs += e.FwdMACs(n)
		w.hidden += float64(e.HiddenWidth()) * float64(e.FwdBands()+e.BwdBands()) / 2
	}
	return w
}

// paramBytes is the gradient bytes of the experts' parameters, what
// Gradient-AllReduce must move: gradElemBytes per element of every Params()
// weight. Only Algorithm 1's volumes need it; stepVolumes counts the world's
// flattened gradient instead, and Params() allocates, so it stays off
// expertWork, which every step runs.
func paramBytes(experts []Expert) float64 {
	elems := 0
	for _, e := range experts {
		for _, p := range e.Params() {
			elems += p.W.Size()
		}
	}
	return gradElemBytes * float64(elems)
}

// volumes derives Algorithm-1 scheduling volumes from the real layer at
// group width g of ranks: the width decides which collectives carry the
// dispatched activations, the gate's routing kind how many rows are
// dispatched, and expert MACs / gradient bytes come from the live expert
// implementations, so custom experts steer the choice through their own
// FwdMACs/Params/HiddenWidth. At g = 1 (and at one rank) they move twice
// over the AlltoAll links; at g = R through the AllGather/ReduceScatter
// stages plus the hidden-activation exchange. Widths between interpolate:
// with lanes of R/g ranks, the fraction of dispatched rows crossing lanes is
// 1-g/R, normalized by g = 1's 1-1/R; the in-group AllGather/ReduceScatter
// traffic carries the ring factor (g-1)/g, normalized by g = R's (R-1)/R.
// Larger groups thus trade AlltoAll volume for in-group collective volume —
// the axis resolve's grid optimizes.
func volumes(l *MOELayer, tokens, ranks, g int) core.Volumes {
	effF := l.cfg.GateConfig.Factor
	if effF <= 0 {
		effF = 1.0
	}
	k := max(l.cfg.GateConfig.TopK, 1)
	e := len(l.cfg.Experts)
	dispatched := float64(k) * effF * float64(tokens)
	if l.routesDense() {
		// Dense plans dispatch E·slotsPerExpert slot rows, independent of
		// the token count.
		dispatched = float64(e * max(l.cfg.SlotsPerExpert, 1))
	}
	wire := dispatched * float64(l.cfg.M) * actElemBytes
	work := l.expertWork(max(int(dispatched)/e, 1))
	hiddenWire := work.hidden / float64(e) * dispatched * actElemBytes
	v := core.Volumes{
		ExpMACs:  work.macs,
		ExpGEMMs: work.gemms,
		// The dense part is outside the World's pipeline; a nominal floor
		// keeps the volumes valid for full-iteration simulations.
		DenseFwd:  0.1,
		DenseBwd:  0.2,
		GradBytes: paramBytes(l.cfg.Experts),
	}
	switch {
	case g <= 1:
		v.NA2A = wire
	case g >= ranks:
		// Two gather stages (inputs, then hidden activations) and the
		// output ReduceScatter; no AlltoAll at all.
		v.NAG, v.NRS = wire+hiddenWire, wire
	default:
		rf, gf := float64(ranks), float64(g)
		ring := ((gf - 1) / gf) / ((rf - 1) / rf)
		v.NA2A = wire * (rf - gf) / (rf - 1)
		v.NAG, v.NRS = (wire+hiddenWire)*ring, wire*ring
	}
	return v
}

// stepVolumes derives the §5 accounting volumes for one world from its
// live shapes: per-GPU AlltoAll bytes from the padded dispatched tokens,
// expert MACs from the live expert implementations, gradient bytes from
// the flattened parameter count (gate included: the partition must
// conserve every element a slice steps), and a nominal dense window (the
// stack has no real dense compute between MoE layers). GradBytes still
// prices the paper's Gradient-AllReduce although the executable sync moves
// no bytes (one copy, stepped in place): the partition plans the paper's
// system, which holds parameters on several workers, and the same plan cuts
// the slices, so pricing only the update would change every plan.
func stepVolumes(w *World, tpad int) core.Volumes {
	nA2A := float64(tpad*w.egrp*w.layer.cfg.M) * actElemBytes // per-rank wire volume of one A2A
	work := w.layer.expertWork(tpad)
	total := w.gradElems()
	return core.Volumes{
		NA2A:      nA2A,
		NAG:       nA2A,
		NRS:       nA2A,
		ExpMACs:   work.macs / float64(w.cfg.Ranks), // per-GPU share
		ExpGEMMs:  work.gemms,
		DenseFwd:  0.1,
		DenseBwd:  0.2,
		GradBytes: float64(total) * gradElemBytes,
	}
}
