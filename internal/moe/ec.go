package moe

import (
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// ECGate is expert-choice routing (§2.1, Zhou et al.): instead of tokens
// picking experts, each expert independently selects its top-T tokens,
// G(x) = Softmax(KeepTopK((x·W_g)ᵀ, T)), guaranteeing perfect load balance
// by construction (no token is ever dropped for capacity; capacity IS the
// selection budget).
type ECGate struct {
	cfg  GateConfig
	m    int
	wg   *Param
	idle *ecCache // routing scratch between a Backward and the next Route
}

// ecCache is the gate's routing scratch (routing). Each expert's row of the
// plan holds its selected tokens and their masked-softmax weights.
type ecCache struct {
	routing
	logits *tensor.Tensor // x·W_g, (N, E)
	col    []float64      // one expert's column of logits
}

// NewECGate constructs the gate for embedding size m. The per-expert token
// budget T is derived from the usual capacity formula T = k·f·N/E at route
// time, so the same GateConfig vocabulary drives all gates.
func NewECGate(cfg GateConfig, m int, rng *xrand.RNG) (*ECGate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ECGate{cfg: cfg, m: m, wg: newParam("ec.wg", tensor.Xavier(rng, m, cfg.Experts))}, nil
}

// Name implements Gate.
func (g *ECGate) Name() string { return "ec" }

// Params implements Gate.
func (g *ECGate) Params() []*Param { return []*Param{g.wg} }

// Route implements Gate. The plan and the RouteCache are the gate's
// routing scratch (routing), valid until the next Route after their
// Backward.
func (g *ECGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	if err := checkGateInput(x, g.m); err != nil {
		return nil, nil, err
	}
	n, e := x.Dim(0), g.cfg.Experts
	capacity := CapacityFor(n, e, g.cfg.TopK, g.cfg.Factor)
	if capacity <= 0 { // f=∗ degenerates to an even split for EC
		capacity = (g.cfg.TopK*n + e - 1) / e
	}
	capacity = min(capacity, n)
	cache := g.idle
	g.idle = nil
	if cache == nil {
		cache = &ecCache{}
	}
	cache.begin(x, cache)
	logits := scratchMat(&cache.logits, n, e)
	tensor.MatMulInto(logits, x, g.wg.W)
	plan := cache.layout(e, capacity)
	ld, col := logits.Data(), grow(cache.col, n)
	for ei := 0; ei < e; ei++ {
		for t := range col {
			col[t] = ld[t*e+ei]
		}
		sel, w := plan.SlotToken[ei], plan.SlotWeight[ei]
		tensor.TopKInto(sel, col)
		for j, tok := range sel {
			w[j] = col[tok]
		}
		tensor.SoftmaxInPlace(w)
	}
	cache.col = col
	return plan, &cache.rc, nil
}

// reclaim implements scratchGate.
func (g *ECGate) reclaim(rc *RouteCache) { g.idle = rc.extra.(*ecCache) }

// Backward implements Gate: per expert, the masked softmax over its
// selected tokens is differentiated, then the gradient flows through the
// shared linear scorer.
func (g *ECGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	plan := rc.Plan
	x := rc.X
	n, e := x.Dim(0), g.cfg.Experts
	dLogits := tensor.Get(n, e)
	dlt := tensor.GetUninit(plan.Capacity) // every expert selects Capacity tokens
	dl := dlt.Data()
	for ei := 0; ei < e; ei++ {
		clear(dl)
		if grad.SlotWeight != nil {
			copy(dl, grad.SlotWeight[ei])
		}
		maskedSoftmaxBackward(plan.SlotWeight[ei], dl)
		for j, tok := range plan.SlotToken[ei] {
			dLogits.Row(tok)[ei] = dl[j]
		}
	}
	tensor.Put(dlt)
	tensor.MatMulT1AddInto(g.wg.G, x, dLogits)
	tensor.MatMulT2Into(dx, dLogits, g.wg.W)
	tensor.Put(dLogits)
	g.idle = rc.extra.(*ecCache)
}
