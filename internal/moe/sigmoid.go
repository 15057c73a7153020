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
	idle *choices // routing scratch between a Backward and the next Route
}

type sigmoidCache struct {
	scores *tensor.Tensor // x·W_g, (N, E)
	sel    *choices       // selected experts and σ(s) at them
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

// Route implements Gate.
func (g *SigmoidGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	if err := checkGateInput(x, g.m); err != nil {
		return nil, nil, err
	}
	scores := tensor.MatMul(x, g.wg.W)
	plan, sel := routeTopK(&g.idle, g.cfg, scores, func(w []float64) {
		for j, s := range w {
			w[j] = tensor.SigmoidAt(s)
		}
	})
	return plan, &RouteCache{X: x, Plan: plan, extra: &sigmoidCache{scores: scores, sel: sel}}, nil
}

// Backward implements Gate.
func (g *SigmoidGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	sel := rc.extra.(*sigmoidCache).sel
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
	g.idle = sel
	tensor.MatMulT1AddInto(g.wg.G, x, dScores)
	tensor.MatMulT2Into(dx, dScores, g.wg.W)
	tensor.Put(dScores)
}
