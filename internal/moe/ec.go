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
	cfg GateConfig
	m   int
	wg  *Param
}

type ecCache struct {
	logits *tensor.Tensor // (N, E)
	selTok [][]int        // per expert: selected token ids
	selW   [][]float64    // per expert: masked-softmax weights over its tokens
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

// Route implements Gate.
func (g *ECGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	if err := checkGateInput(x, g.m); err != nil {
		return nil, nil, err
	}
	n, e := x.Dim(0), g.cfg.Experts
	capacity := CapacityFor(n, e, g.cfg.TopK, g.cfg.Factor)
	if capacity <= 0 { // f=∗ degenerates to an even split for EC
		capacity = (g.cfg.TopK*n + e - 1) / e
	}
	if capacity > n {
		capacity = n
	}
	logits := tensor.MatMul(x, g.wg.W)
	p := &DispatchPlan{Experts: e, Capacity: capacity}
	p.SlotToken = make([][]int, e)
	p.SlotWeight = make([][]float64, e)
	cache := &ecCache{logits: logits, selTok: make([][]int, e), selW: make([][]float64, e)}
	col := make([]float64, n)
	for ei := 0; ei < e; ei++ {
		for t := 0; t < n; t++ {
			col[t] = logits.At(t, ei)
		}
		sel := tensor.TopK(col, capacity)
		w := make([]float64, len(sel))
		for j, tok := range sel {
			w[j] = col[tok]
		}
		tensor.SoftmaxInPlace(w)
		p.SlotToken[ei] = append([]int(nil), sel...)
		p.SlotWeight[ei] = w
		cache.selTok[ei] = p.SlotToken[ei]
		cache.selW[ei] = p.SlotWeight[ei]
	}
	return p, &RouteCache{X: x, Plan: p, extra: cache}, nil
}

// Backward implements Gate: per expert, the masked softmax over its
// selected tokens is differentiated, then the gradient flows through the
// shared linear scorer.
func (g *ECGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	cache := rc.extra.(*ecCache)
	x := rc.X
	n, e := x.Dim(0), g.cfg.Experts
	dLogits := tensor.Get(n, e)
	dl := make([]float64, rc.Plan.Capacity) // every expert selects Capacity tokens
	for ei := 0; ei < e; ei++ {
		clear(dl)
		if grad.SlotWeight != nil {
			copy(dl, grad.SlotWeight[ei])
		}
		maskedSoftmaxBackward(cache.selW[ei], dl)
		for j, tok := range cache.selTok[ei] {
			dLogits.Row(tok)[ei] = dl[j]
		}
	}
	tensor.MatMulT1AddInto(g.wg.G, x, dLogits)
	tensor.MatMulT2Into(dx, dLogits, g.wg.W)
	tensor.Put(dLogits)
}
