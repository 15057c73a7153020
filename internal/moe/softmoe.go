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
	idle     *softmoeCache // routing scratch between a Backward and the next Route
}

// softmoeCache is the gate's routing scratch (routing). The plan's
// DispatchW (E·T, N) is Dᵀ, the column softmax of the logits transposed,
// and its CombineW is c.
type softmoeCache struct {
	routing
	logits *tensor.Tensor // (N, E*T)
	c      *tensor.Tensor // (N, E*T) row-softmax
	dt     *tensor.Tensor // (E*T, N): Dᵀ
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

// Route implements Gate. The plan and the RouteCache are the gate's
// routing scratch (routing), valid until the next Route after their
// Backward.
func (g *SoftMoEGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	if err := checkGateInput(x, g.m); err != nil {
		return nil, nil, err
	}
	cache := g.idle
	g.idle = nil
	if cache == nil {
		cache = &softmoeCache{}
	}
	cache.begin(x, cache)
	n, slots := x.Dim(0), g.cfg.Experts*g.slotsPer
	logits := scratchMat(&cache.logits, n, slots)
	tensor.MatMulInto(logits, x, g.phi.W)
	// D's columns are softmaxes over tokens: the rows of Dᵀ, softmaxed in
	// place on the transposed logits.
	dt := scratchMat(&cache.dt, slots, n)
	tensor.Transpose2DInto(dt, logits)
	for s := 0; s < slots; s++ {
		tensor.SoftmaxInPlace(dt.Row(s))
	}
	c := scratchMat(&cache.c, n, slots)
	tensor.SoftmaxRowsInto(c, logits)
	plan := &cache.plan
	plan.reset(g.cfg.Experts, g.slotsPer)
	plan.DispatchW, plan.CombineW = dt, c
	return plan, &cache.rc, nil
}

// reclaim implements scratchGate.
func (g *SoftMoEGate) reclaim(rc *RouteCache) { g.idle = rc.extra.(*softmoeCache) }

// Backward implements Gate: exact gradients through both softmaxes.
// grad.DispatchW is ∂L/∂(Dᵀ) and grad.CombineW is ∂L/∂C.
func (g *SoftMoEGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	cache := rc.extra.(*softmoeCache)
	x := rc.X
	n := x.Dim(0)
	slots := g.cfg.Experts * g.slotsPer
	// dLogits, and one row's or one column's logit gradient.
	dLogits, dlt := tensor.Get(n, slots), tensor.GetUninit(max(n, slots))
	if grad.CombineW != nil {
		// Row softmax backward: per token row.
		dl := dlt.Data()[:slots]
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
		// (slots, N) = ∂L/∂Dᵀ, so column s of D — row s of Dᵀ — has
		// gradient row s of it.
		dl := dlt.Data()[:n]
		for s := 0; s < slots; s++ {
			copy(dl, grad.DispatchW.Row(s))
			maskedSoftmaxBackward(cache.dt.Row(s), dl)
			for t := 0; t < n; t++ {
				dLogits.Row(t)[s] += dl[t]
			}
		}
	}
	tensor.Put(dlt)
	tensor.MatMulT1AddInto(g.phi.G, x, dLogits)
	tensor.MatMulT2Into(dx, dLogits, g.phi.W)
	tensor.Put(dLogits)
	g.idle = cache
}
