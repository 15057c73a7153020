package moe

import (
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// SoftMoEGate is soft routing (§3.1, Puigcerver et al.): every expert slot
// receives a convex combination of all tokens instead of a hard assignment.
// With slot parameters Φ (M × E·T) and logits L = x·Φ:
//
//	D = softmax over tokens (columns of L)   — dispatch weights
//	C = softmax over slots  (rows of L)      — combine weights
//
// Slot inputs are Dᵀ·x and the layer output is C·slotOutputs. No token is
// ever dropped and the routing is fully differentiable, which is why this
// gate's backward pass is exact through both softmaxes.
type SoftMoEGate struct {
	cfg      GateConfig
	m        int
	slotsPer int // T, slots per expert
	phi      *Param
}

type softmoeCache struct {
	logits *tensor.Tensor // (N, E*T)
	d      *tensor.Tensor // (N, E*T) column-softmax
	c      *tensor.Tensor // (N, E*T) row-softmax
}

// NewSoftMoEGate constructs the gate with slotsPerExpert slots each.
func NewSoftMoEGate(cfg GateConfig, m, slotsPerExpert int, rng *xrand.RNG) (*SoftMoEGate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if slotsPerExpert <= 0 {
		slotsPerExpert = 1
	}
	return &SoftMoEGate{
		cfg:      cfg,
		m:        m,
		slotsPer: slotsPerExpert,
		phi:      newParam("softmoe.phi", tensor.Xavier(rng, m, cfg.Experts*slotsPerExpert)),
	}, nil
}

// Name implements Gate.
func (g *SoftMoEGate) Name() string { return "softmoe" }

// Params implements Gate.
func (g *SoftMoEGate) Params() []*Param { return []*Param{g.phi} }

// Route implements Gate.
func (g *SoftMoEGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	if err := checkGateInput(x, g.m); err != nil {
		return nil, nil, err
	}
	logits := tensor.MatMul(x, g.phi.W) // (N, slots)
	d := tensor.SoftmaxCols(logits)
	c := tensor.SoftmaxRows(logits)
	plan := &DispatchPlan{
		Experts:   g.cfg.Experts,
		Capacity:  g.slotsPer,
		DispatchW: tensor.Transpose2D(d), // (slots, N)
		CombineW:  c,                     // (N, slots)
	}
	return plan, &RouteCache{X: x, Plan: plan, extra: &softmoeCache{logits: logits, d: d, c: c}}, nil
}

// Backward implements Gate: exact gradients through both softmaxes.
// grad.DispatchW is ∂L/∂(Dᵀ) and grad.CombineW is ∂L/∂C.
func (g *SoftMoEGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	cache := rc.extra.(*softmoeCache)
	x := rc.X
	n := x.Dim(0)
	slots := g.cfg.Experts * g.slotsPer
	dLogits := tensor.Get(n, slots)
	if grad.CombineW != nil {
		// Row softmax backward: per token row.
		dl := make([]float64, slots)
		for t := 0; t < n; t++ {
			copy(dl, grad.CombineW.Row(t))
			maskedSoftmaxBackward(cache.c.Row(t), dl)
			for j, row := 0, dLogits.Row(t); j < slots; j++ {
				row[j] += dl[j]
			}
		}
	}
	if grad.DispatchW != nil {
		// Column softmax backward: per slot column. grad.DispatchW is
		// (slots, N) = ∂L/∂Dᵀ, so column s of D has gradient row s of it.
		w := make([]float64, n)
		dl := make([]float64, n)
		for s := 0; s < slots; s++ {
			for t := 0; t < n; t++ {
				w[t] = cache.d.Row(t)[s]
			}
			copy(dl, grad.DispatchW.Row(s))
			maskedSoftmaxBackward(w, dl)
			for t := 0; t < n; t++ {
				dLogits.Row(t)[s] += dl[t]
			}
		}
	}
	tensor.MatMulT1AddInto(g.phi.G, x, dLogits)
	tensor.MatMulT2Into(dx, dLogits, g.phi.W)
	tensor.Put(dLogits)
}
