package moe

import (
	"math"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// XMoEGate is the routing of X-MoE (§2.1): a low-rank projection
// u = W_proj·x is compared against learned expert embeddings by cosine
// similarity, s_e = cos(u, w_e), which mitigates representation collapse.
// The scores are sharpened by a temperature τ and the combine weights are
// the softmax over the selected experts' scores.
type XMoEGate struct {
	cfg  GateConfig
	m    int
	dim  int        // low-rank dimension
	proj *Param     // (M, dim)
	emb  *Param     // (E, dim) expert embeddings
	idle *xmoeCache // routing scratch between a Backward and the next Route
}

// xmoeCache is the gate's routing scratch (routing): sel holds the selected
// experts and their softmax weights.
type xmoeCache struct {
	routing
	u   *tensor.Tensor // x·W_proj, (N, dim)
	cos *tensor.Tensor // cosine scores, (N, E)
}

// xmoeTau is X-MoE's softmax temperature τ.
const xmoeTau = 0.3

// NewXMoEGate constructs the gate with X-MoE's defaults: projection rank
// M/8 (at least 2) and temperature xmoeTau.
func NewXMoEGate(cfg GateConfig, m int, rng *xrand.RNG) (*XMoEGate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dim := max(m/8, 2)
	return &XMoEGate{
		cfg:  cfg,
		m:    m,
		dim:  dim,
		proj: newParam("xmoe.proj", tensor.Xavier(rng, m, dim)),
		emb:  newParam("xmoe.emb", tensor.Xavier(rng, cfg.Experts, dim)),
	}, nil
}

// Name implements Gate.
func (g *XMoEGate) Name() string { return "xmoe" }

// Params implements Gate.
func (g *XMoEGate) Params() []*Param { return []*Param{g.proj, g.emb} }

// Route implements Gate. The plan and the RouteCache are the gate's
// routing scratch (routing), valid until the next Route after their
// Backward.
func (g *XMoEGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	if err := checkGateInput(x, g.m); err != nil {
		return nil, nil, err
	}
	cache := g.idle
	g.idle = nil
	if cache == nil {
		cache = &xmoeCache{}
	}
	cache.begin(x, cache)
	n := x.Dim(0)
	u := scratchMat(&cache.u, n, g.dim)
	tensor.MatMulInto(u, x, g.proj.W)
	cos := scratchMat(&cache.cos, n, g.cfg.Experts)
	tensor.CosineRowsInto(cos, u, g.emb.W)
	plan := cache.routeTopK(g.cfg, cos, func(w []float64) {
		for j := range w {
			w[j] /= xmoeTau
		}
		tensor.SoftmaxInPlace(w)
	})
	return plan, &cache.rc, nil
}

// reclaim implements scratchGate.
func (g *XMoEGate) reclaim(rc *RouteCache) { g.idle = rc.extra.(*xmoeCache) }

// Backward implements Gate. The gradient flows through the selected-set
// softmax, the temperature, and the full cosine similarity (both the inner
// product and the two norms), into the projection, the expert embeddings,
// and the input.
func (g *XMoEGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	cache := rc.extra.(*xmoeCache)
	x := rc.X
	n, k := x.Dim(0), g.cfg.TopK
	sel := &cache.sel
	dW := sel.weightGrads(rc.Plan, grad.SlotWeight)
	dU := tensor.Get(n, g.dim)
	for t := 0; t < n; t++ {
		dscore := dW[t*k : (t+1)*k]
		maskedSoftmaxBackward(sel.w[t*k:(t+1)*k], dscore)
		urow := cache.u.Row(t)
		un := norm(urow)
		if un == 0 {
			continue
		}
		du := dU.Row(t)
		for j, eIdx := range sel.idx[t*k : (t+1)*k] {
			ds := dscore[j] / xmoeTau
			if ds == 0 {
				continue
			}
			vrow := g.emb.W.Row(eIdx)
			vn := norm(vrow)
			if vn == 0 {
				continue
			}
			s := cache.cos.Row(t)[eIdx]
			// d cos(u,v)/du = v/(|u||v|) - s·u/|u|²  (and symmetrically for v).
			dv := g.emb.G.Row(eIdx)
			for d := 0; d < g.dim; d++ {
				du[d] += ds * (vrow[d]/(un*vn) - s*urow[d]/(un*un))
				dv[d] += ds * (urow[d]/(un*vn) - s*vrow[d]/(vn*vn))
			}
		}
	}
	tensor.MatMulT1AddInto(g.proj.G, x, dU)
	tensor.MatMulT2Into(dx, dU, g.proj.W)
	tensor.Put(dU)
	g.idle = cache
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
