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
	dim  int      // low-rank dimension
	tau  float64  // temperature
	proj *Param   // (M, dim)
	emb  *Param   // (E, dim) expert embeddings
	idle *choices // routing scratch between a Backward and the next Route
}

type xmoeCache struct {
	u   *tensor.Tensor // x·W_proj, (N, dim)
	cos *tensor.Tensor // cosine scores, (N, E)
	sel *choices       // selected experts and their softmax weights
}

// NewXMoEGate constructs the gate. lowRank is the projection dimension
// (the X-MoE paper uses a small value such as M/8); tau is the softmax
// temperature (0 selects the X-MoE default of 0.3).
func NewXMoEGate(cfg GateConfig, m, lowRank int, tau float64, rng *xrand.RNG) (*XMoEGate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lowRank <= 0 {
		lowRank = m / 8
		if lowRank < 2 {
			lowRank = 2
		}
	}
	if tau <= 0 {
		tau = 0.3
	}
	return &XMoEGate{
		cfg:  cfg,
		m:    m,
		dim:  lowRank,
		tau:  tau,
		proj: newParam("xmoe.proj", tensor.Xavier(rng, m, lowRank)),
		emb:  newParam("xmoe.emb", tensor.Xavier(rng, cfg.Experts, lowRank)),
	}, nil
}

// Name implements Gate.
func (g *XMoEGate) Name() string { return "xmoe" }

// Params implements Gate.
func (g *XMoEGate) Params() []*Param { return []*Param{g.proj, g.emb} }

// Route implements Gate.
func (g *XMoEGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	if err := checkGateInput(x, g.m); err != nil {
		return nil, nil, err
	}
	u := tensor.MatMul(x, g.proj.W)
	cos := tensor.CosineRows(u, g.emb.W)
	plan, sel := routeTopK(&g.idle, g.cfg, cos, func(w []float64) {
		for j := range w {
			w[j] /= g.tau
		}
		tensor.SoftmaxInPlace(w)
	})
	return plan, &RouteCache{X: x, Plan: plan, extra: &xmoeCache{u: u, cos: cos, sel: sel}}, nil
}

// Backward implements Gate. The gradient flows through the selected-set
// softmax, the temperature, and the full cosine similarity (both the inner
// product and the two norms), into the projection, the expert embeddings,
// and the input.
func (g *XMoEGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	cache := rc.extra.(*xmoeCache)
	x := rc.X
	n, k := x.Dim(0), g.cfg.TopK
	sel := cache.sel
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
			ds := dscore[j] / g.tau
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
	g.idle = sel
	tensor.MatMulT1AddInto(g.proj.G, x, dU)
	tensor.MatMulT2Into(dx, dU, g.proj.W)
	tensor.Put(dU)
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
