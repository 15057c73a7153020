package moe

// This file is the planner: what NewWorld resolves a configuration to —
// StrategyAuto and the unset pipeline degrees through §4.4's Algorithm 1
// and the strategy grid — and the byte volumes both it and the §5 partition
// of every step (step.go) price a layer by.

import (
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
// applied: StrategyAuto and an explicit hybrid's unset group size become a
// concrete strategy and group size, and an unset forward degree becomes
// Algorithm 1's per-phase picks on that configuration's volumes. fwd and
// bwd are those picks' full results; a phase whose degree was configured
// reports the zero value.
func resolve(l *MOELayer, cfg WorldConfig) (rc WorldConfig, fwd, bwd core.DegreeResult) {
	if cfg.BatchTokens <= 0 {
		cfg.BatchTokens = 4096
	}
	if cfg.Algo == "" {
		cfg.Algo = comm.A2ADirect
	}
	if cfg.GPUsPerNode <= 0 {
		cfg.GPUsPerNode = cfg.Ranks
	}
	tokens := cfg.BatchTokens

	// pickF/pickB are Algorithm 1's results on the executing configuration's
	// volumes once picked is set: the strategy (or group-size) grid already
	// ran it on the winner's volumes.
	var pickF, pickB core.DegreeResult
	picked := false
	if cfg.Strategy == StrategyAuto {
		cfg.Strategy, cfg.GroupSize, pickF, pickB, picked = chooseStrategy(l, tokens, cfg.Ranks)
	} else if cfg.Strategy == StrategyHybrid && cfg.GroupSize == 0 {
		// Explicit hybrid with an unset group size: the 2-D grid picks g
		// (and the per-phase degrees) over every divisor of the rank
		// count — including the degenerate edges, which are the pure
		// strategies' plans.
		cfg.GroupSize, pickF, pickB = hybridGroupPick(l, tokens, cfg.Ranks)
		picked = true
	}

	degF, degB := cfg.PipelineDegree, cfg.PipelineDegreeBwd
	if degF == 0 {
		if !picked {
			v := layerVolumes(l, tokens, cfg.Strategy)
			if cfg.Strategy == StrategyHybrid {
				v = hybridLayerVolumes(l, tokens, cfg.Ranks, cfg.GroupSize)
			}
			pickF, pickB = phaseDegrees(v)
		}
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
	return cfg, fwd, bwd
}

// chooseStrategy is StrategyAuto: dense routers shard over slots; hard
// routers run the 2-D Algorithm-1 grid over (group size × degree), whose
// g=1 and g=Ranks edges carry the pure EP and ESP volume sets — so the
// EP-vs-ESP comparison is this grid restricted to its edges, and an interior
// winner selects StrategyHybrid with its group size. When the grid ran, the
// winner's per-phase degree results are returned for reuse (picked true),
// saving the caller an identical pair of searches.
func chooseStrategy(l *MOELayer, tokens, ranks int) (strat Strategy, groupSize int, degF, degB core.DegreeResult, picked bool) {
	if l.routesDense() {
		return StrategyDenseSlots, 0, degF, degB, false
	}
	g, f, b := hybridGroupPick(l, tokens, ranks)
	switch g {
	case 1:
		return StrategyEP, 0, f, b, true
	case ranks:
		return StrategyESP, 0, f, b, true
	}
	return StrategyHybrid, g, f, b, true
}

// routesDense reports whether the layer's gate declares dense routing
// (DenseRouter).
func (l *MOELayer) routesDense() bool {
	dr, ok := l.cfg.Gate.(DenseRouter)
	return ok && dr.DenseRouting()
}

// hybridGroupPick scans the (group size × degree) grid: for each divisor
// g of the rank count it runs Algorithm 1 per phase on that cell's
// volumes, and picks the g minimizing the summed forward+backward
// predicted time — one g must serve both phases, while the degrees stay
// per-phase (§4.4).
func hybridGroupPick(l *MOELayer, tokens, ranks int) (groupSize int, degF, degB core.DegreeResult) {
	for _, g := range divisors(ranks) {
		f, b := phaseDegrees(hybridLayerVolumes(l, tokens, ranks, g))
		if groupSize == 0 || f.TMoE+b.TMoE < degF.TMoE+degB.TMoE {
			groupSize, degF, degB = g, f, b
		}
	}
	return groupSize, degF, degB
}

// divisors returns the divisors of n in ascending order — the candidate
// hybrid group sizes of an n-rank world.
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

// layerVolumes derives Algorithm-1 scheduling volumes from the real layer
// under one strategy: the strategy decides which collectives carry the
// dispatched activations — EP and DenseSlots move them twice over the
// AlltoAll links, ESP moves them through the AllGather/ReduceScatter
// stages plus the hidden-activation exchange — the gate's routing kind how
// many rows are dispatched, and expert MACs / gradient bytes come from the
// live expert implementations, so custom experts steer the choice through
// their own FwdMACs/Params/HiddenWidth.
func layerVolumes(l *MOELayer, tokens int, strat Strategy) core.Volumes {
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
	if strat == StrategyESP {
		// Two gather stages (inputs, then hidden activations) and the
		// output ReduceScatter; no AlltoAll at all.
		v.NAG = wire + hiddenWire
		v.NRS = wire
	} else {
		v.NA2A = wire
	}
	return v
}

// hybridLayerVolumes derives the volumes of one hybrid grid cell. The
// degenerate group sizes return the pure strategies' volume sets exactly
// (those cells execute the pure strategies' plans, so the grid's edges
// must coincide with the 1-D comparisons). Interior cells interpolate: with lanes of
// R/g ranks, the fraction of dispatched rows crossing lanes is 1-g/R,
// normalized by EP's 1-1/R so g=1 recovers EP's convention; the in-group
// AllGather/ReduceScatter traffic carries the ring factor (g-1)/g,
// normalized by ESP's (R-1)/R so g=R recovers ESP's. Larger groups thus
// trade AlltoAll volume for in-group collective volume — the axis the
// 2-D grid optimizes.
func hybridLayerVolumes(l *MOELayer, tokens, ranks, g int) core.Volumes {
	if g <= 1 || ranks <= 1 {
		return layerVolumes(l, tokens, StrategyEP)
	}
	if g >= ranks {
		return layerVolumes(l, tokens, StrategyESP)
	}
	ep := layerVolumes(l, tokens, StrategyEP)
	esp := layerVolumes(l, tokens, StrategyESP)
	rf, gf := float64(ranks), float64(g)
	ring := ((gf - 1) / gf) / ((rf - 1) / rf)
	v := ep
	v.NA2A = ep.NA2A * (rf - gf) / (rf - 1)
	v.NAG = esp.NAG * ring
	v.NRS = esp.NRS * ring
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
