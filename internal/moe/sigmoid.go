package moe

import (
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// SigmoidGate is the gate of BASE layers and StableMoE (§2.1):
// scores s = x·W_g, top-k selection on the raw scores, and the expert
// output scaled by σ(s_e). Because each expert's weight is an independent
// sigmoid (no normalization across experts), increasing an expert's score
// when it helps the objective directly reinforces its selection.
type SigmoidGate struct {
	cfg  GateConfig
	m    int
	wg   *Param
	idle *sigmoidCache // routing scratch between a Backward and the next Route
}

// sigmoidCache is the gate's routing scratch (routing): sel holds the
// selected experts and σ(s) at them.
type sigmoidCache struct {
	routing
	scores *tensor.Tensor // x·W_g, (N, E)
}

// NewSigmoidGate constructs the gate for embedding size m.
func NewSigmoidGate(cfg GateConfig, m int, rng *xrand.RNG) (*SigmoidGate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SigmoidGate{cfg: cfg, m: m, wg: newParam("sigmoid.wg", tensor.Xavier(rng, m, cfg.Experts))}, nil
}

// Name implements Gate.
func (g *SigmoidGate) Name() string { return "sigmoid" }

// Params implements Gate.
func (g *SigmoidGate) Params() []*Param { return []*Param{g.wg} }

// Route implements Gate. The plan and the RouteCache are the gate's
// routing scratch (routing), valid until the next Route after their
// Backward.
func (g *SigmoidGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	if err := checkGateInput(x, g.m); err != nil {
		return nil, nil, err
	}
	cache := g.idle
	g.idle = nil
	if cache == nil {
		cache = &sigmoidCache{}
	}
	cache.begin(x, cache)
	scores := scratchMat(&cache.scores, x.Dim(0), g.cfg.Experts)
	tensor.MatMulInto(scores, x, g.wg.W)
	plan := cache.routeTopK(g.cfg, scores, func(w []float64) {
		for j, s := range w {
			w[j] = tensor.SigmoidAt(s)
		}
	})
	return plan, &cache.rc, nil
}

// reclaim implements scratchGate.
func (g *SigmoidGate) reclaim(rc *RouteCache) { g.idle = rc.extra.(*sigmoidCache) }

// Backward implements Gate.
func (g *SigmoidGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	cache := rc.extra.(*sigmoidCache)
	sel := &cache.sel
	x := rc.X
	n, e, k := x.Dim(0), g.cfg.Experts, g.cfg.TopK
	dW := sel.weightGrads(rc.Plan, grad.SlotWeight)
	dScores := tensor.Get(n, e)
	for t := 0; t < n; t++ {
		row := dScores.Row(t)
		for j, idx := range sel.idx[t*k : (t+1)*k] {
			s := sel.w[t*k+j]
			row[idx] = dW[t*k+j] * s * (1 - s) // σ' = σ(1-σ)
		}
	}
	tensor.MatMulT1AddInto(g.wg.G, x, dScores)
	tensor.MatMulT2Into(dx, dScores, g.wg.W)
	tensor.Put(dScores)
	g.idle = cache
}
