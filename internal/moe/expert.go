package moe

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Expert is the compute sub-module of §3.1: a small feed-forward network
// applied to the (T, M) token block routed to it. Implementations own their
// parameters and gradient accumulators and provide a manual backward pass.
//
// Concurrency contract: MOELayer invokes Forward and Backward on *different*
// expert instances concurrently (never the same instance twice at once).
// An implementation therefore must not share mutable state — scratch
// buffers, RNGs, or Param tensors (e.g. tied weights) — with another
// expert instance in the same layer unless it synchronizes access. The
// layer detects the same instance registered at several indices and falls
// back to sequential execution for that case, but it cannot see state
// shared between distinct instances.
type Expert interface {
	Name() string
	// Forward evaluates the expert on x (n, M) and returns the output
	// (n, M) plus an opaque cache for Backward.
	Forward(x *tensor.Tensor) (*tensor.Tensor, ExpertCache)
	// Backward consumes dY (n, M), accumulates parameter gradients, and
	// returns dX (n, M).
	Backward(cache ExpertCache, dy *tensor.Tensor) *tensor.Tensor
	// Params exposes the trainable parameters.
	Params() []*Param
	// FwdMACs returns the forward multiply-accumulate count for n tokens,
	// which drives the performance model (backward is modelled as 2×,
	// §4.4).
	FwdMACs(n int) float64
	// ParamBytes returns the parameter footprint in bytes (fp32), the
	// quantity Gradient-AllReduce must move.
	ParamBytes() float64
}

// ExpertCache is the opaque forward cache an expert hands to its backward.
type ExpertCache interface{}

// IntoExpert is the zero-copy fast path an Expert may additionally
// implement. ForwardInto writes the output into out (a view of the layer's
// (E, T, M) buffer) and BackwardInto writes dX into dx and the parameter
// gradients where grads says, letting MOELayer skip the per-expert copy
// round-trips. Implementations may draw transient buffers from tensor.Get
// and must Put them by the end of BackwardInto; both built-in experts do.
// Custom experts that only implement Expert keep working through the
// copying fallback.
type IntoExpert interface {
	Expert
	ForwardInto(x, out *tensor.Tensor) ExpertCache
	BackwardInto(cache ExpertCache, dy, dx *tensor.Tensor, grads GradDst)
}

// GradDst is where a backward pass puts one expert's parameter gradients.
// Nil is the Expert.Backward contract: they are added to each Param.G.
// Otherwise GradDst[i] is overwritten with the gradient of Params()[i] —
// during a training step it is the expert's span of its owner rank's
// resident buffer, which holds last step's replica, so the gradient is
// written where the Gradient-AllReduce reads it and nothing is zeroed
// first or copied afterwards.
type GradDst []*tensor.Tensor

// weight puts the weight gradient aᵀ·b of parameter i (p) where d says.
func (d GradDst) weight(pool *tensor.Pool, i int, p *Param, a, b *tensor.Tensor) {
	if d == nil {
		pool.MatMulT1AddInto(p.G, a, b)
		return
	}
	pool.MatMulT1Into(d[i], a, b)
}

// bias puts the bias gradient of parameter i (p), the column sums of m,
// where d says.
func (d GradDst) bias(i int, p *Param, m *tensor.Tensor) {
	g := p.G
	if d != nil {
		g = d[i]
		g.Zero()
	}
	addColSum(g, m)
}

// GPTFFN is the "simple" expert of Table 4: two dense layers with a GeLU,
// y = GeLU(x·W1 + b1)·W2 + b2, as in the GPT-2/GPT-3 feed-forward block.
type GPTFFN struct {
	m, h           int
	w1, b1, w2, b2 *Param
}

type gptCache struct {
	x *tensor.Tensor // input
	h *tensor.Tensor // pre-activation x·W1+b1
	a *tensor.Tensor // GeLU(h)
}

// NewGPTFFN constructs an expert with embedding m and hidden size h.
func NewGPTFFN(m, h int, rng *xrand.RNG) (*GPTFFN, error) {
	if m <= 0 || h <= 0 {
		return nil, fmt.Errorf("moe: GPTFFN sizes must be positive, got M=%d H=%d", m, h)
	}
	return &GPTFFN{
		m: m, h: h,
		w1: newParam("ffn.w1", tensor.Xavier(rng, m, h)),
		b1: newParam("ffn.b1", tensor.New(h)),
		w2: newParam("ffn.w2", tensor.Xavier(rng, h, m)),
		b2: newParam("ffn.b2", tensor.New(m)),
	}, nil
}

// Name implements Expert.
func (f *GPTFFN) Name() string { return "gpt-ffn" }

// Params implements Expert.
func (f *GPTFFN) Params() []*Param { return []*Param{f.w1, f.b1, f.w2, f.b2} }

// FwdMACs implements Expert: two GEMMs of n·M·H MACs each.
func (f *GPTFFN) FwdMACs(n int) float64 { return 2 * float64(n) * float64(f.m) * float64(f.h) }

// ParamBytes implements Expert (fp32).
func (f *GPTFFN) ParamBytes() float64 {
	return 4 * float64(2*f.m*f.h+f.h+f.m)
}

// Forward implements Expert.
func (f *GPTFFN) Forward(x *tensor.Tensor) (*tensor.Tensor, ExpertCache) {
	y := tensor.New(x.Dim(0), f.m)
	c := f.ForwardInto(x, y)
	return y, c
}

// ForwardInto implements IntoExpert. The cached h and a are pooled buffers
// that BackwardInto releases; forward-only callers may leak them to the GC.
func (f *GPTFFN) ForwardInto(x, out *tensor.Tensor) ExpertCache {
	n := x.Dim(0)
	h := tensor.GetUninit(n, f.h)
	tensor.MatMulInto(h, x, f.w1.W)
	tensor.AddRowVectorInPlace(h, f.b1.W)
	a := tensor.GetUninit(n, f.h)
	tensor.GeLUInto(a, h)
	tensor.MatMulInto(out, a, f.w2.W)
	tensor.AddRowVectorInPlace(out, f.b2.W)
	return &gptCache{x: x, h: h, a: a}
}

// Backward implements Expert.
func (f *GPTFFN) Backward(cache ExpertCache, dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dy.Dim(0), f.m)
	f.BackwardInto(cache, dy, dx, nil)
	return dx
}

// BackwardInto implements IntoExpert.
func (f *GPTFFN) BackwardInto(cache ExpertCache, dy, dx *tensor.Tensor, grads GradDst) {
	c := cache.(*gptCache)
	// y = a·W2 + b2; a = GeLU(h): fold the activation gradient into da in place.
	da := tensor.GetUninit(dy.Dim(0), f.h)
	tensor.MatMulT2Into(da, dy, f.w2.W)
	hd := c.h.Data()
	dd := da.Data()
	for i := range dd {
		dd[i] *= tensor.GeLUGrad(hd[i])
	}
	f.paramGrads(nil, c.x, c.a, da, dy, grads)
	// h = x·W1 + b1.
	tensor.MatMulT2Into(dx, da, f.w1.W)
	tensor.Put(da)
	tensor.Put(c.a)
	tensor.Put(c.h)
}

// paramGrads is the full-block parameter-gradient reduction every backward
// of the expert ends in — monolithic, chunked or sharded — from the input
// x, the activation a = GeLU(x·W1 + b1), its gradient da and the output
// gradient dy: the same GEMMs and column sums in the same accumulation
// order, whoever assembled the buffers.
func (f *GPTFFN) paramGrads(pool *tensor.Pool, x, a, da, dy *tensor.Tensor, grads GradDst) {
	grads.weight(pool, 2, f.w2, a, dy)
	grads.bias(3, f.b2, dy)
	grads.weight(pool, 0, f.w1, x, da)
	grads.bias(1, f.b1, da)
}

// MixtralFFN is the SwiGLU expert used by Mixtral (§3.1):
// y = (SiLU(x·W1) ⊙ (x·W3))·W2, three matrices and no biases.
type MixtralFFN struct {
	m, h       int
	w1, w2, w3 *Param
}

type mixtralCache struct {
	x *tensor.Tensor
	g *tensor.Tensor // x·W1 (pre-activation)
	u *tensor.Tensor // x·W3
	a *tensor.Tensor // SiLU(g)
}

// NewMixtralFFN constructs the expert with embedding m and hidden size h.
func NewMixtralFFN(m, h int, rng *xrand.RNG) (*MixtralFFN, error) {
	if m <= 0 || h <= 0 {
		return nil, fmt.Errorf("moe: MixtralFFN sizes must be positive, got M=%d H=%d", m, h)
	}
	return &MixtralFFN{
		m: m, h: h,
		w1: newParam("ffn.w1", tensor.Xavier(rng, m, h)),
		w2: newParam("ffn.w2", tensor.Xavier(rng, h, m)),
		w3: newParam("ffn.w3", tensor.Xavier(rng, m, h)),
	}, nil
}

// Name implements Expert.
func (f *MixtralFFN) Name() string { return "mixtral-ffn" }

// Params implements Expert.
func (f *MixtralFFN) Params() []*Param { return []*Param{f.w1, f.w2, f.w3} }

// FwdMACs implements Expert: three GEMMs of n·M·H MACs each.
func (f *MixtralFFN) FwdMACs(n int) float64 { return 3 * float64(n) * float64(f.m) * float64(f.h) }

// ParamBytes implements Expert (fp32).
func (f *MixtralFFN) ParamBytes() float64 { return 4 * float64(3*f.m*f.h) }

// Forward implements Expert.
func (f *MixtralFFN) Forward(x *tensor.Tensor) (*tensor.Tensor, ExpertCache) {
	y := tensor.New(x.Dim(0), f.m)
	c := f.ForwardInto(x, y)
	return y, c
}

// ForwardInto implements IntoExpert.
func (f *MixtralFFN) ForwardInto(x, out *tensor.Tensor) ExpertCache {
	n := x.Dim(0)
	g := tensor.GetUninit(n, f.h)
	tensor.MatMulInto(g, x, f.w1.W)
	u := tensor.GetUninit(n, f.h)
	tensor.MatMulInto(u, x, f.w3.W)
	a := tensor.GetUninit(n, f.h)
	tensor.SiLUInto(a, g)
	p := tensor.GetUninit(n, f.h)
	tensor.MulInto(p, a, u)
	tensor.MatMulInto(out, p, f.w2.W)
	tensor.Put(p)
	return &mixtralCache{x: x, g: g, u: u, a: a}
}

// Backward implements Expert.
func (f *MixtralFFN) Backward(cache ExpertCache, dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dy.Dim(0), f.m)
	f.BackwardInto(cache, dy, dx, nil)
	return dx
}

// BackwardInto implements IntoExpert.
func (f *MixtralFFN) BackwardInto(cache ExpertCache, dy, dx *tensor.Tensor, grads GradDst) {
	c := cache.(*mixtralCache)
	n := dy.Dim(0)
	dp := tensor.GetUninit(n, f.h)
	tensor.MatMulT2Into(dp, dy, f.w2.W)
	da := tensor.GetUninit(n, f.h)
	tensor.MulInto(da, dp, c.u)
	du := tensor.GetUninit(n, f.h)
	tensor.MulInto(du, dp, c.a)
	// a = SiLU(g): fold the activation gradient into da in place.
	gd := c.g.Data()
	dd := da.Data()
	for i := range dd {
		dd[i] *= tensor.SiLUGrad(gd[i])
	}
	p := dp // reuse: dp is dead once da and du exist
	tensor.MulInto(p, c.a, c.u)
	f.paramGrads(nil, c.x, p, da, du, dy, grads)
	tensor.Put(p)
	tensor.MatMulT2Into(dx, da, f.w1.W)
	dxu := tensor.GetUninit(n, f.m)
	tensor.MatMulT2Into(dxu, du, f.w3.W)
	tensor.AddInPlace(dx, dxu)
	tensor.Put(dxu)
	tensor.Put(da)
	tensor.Put(du)
	tensor.Put(c.a)
	tensor.Put(c.g)
	tensor.Put(c.u)
}

// paramGrads is the full-block parameter-gradient reduction every backward
// of the expert ends in, from the input x, the gated product
// p = SiLU(x·W1) ⊙ (x·W3), the gradients da and du of the two projections
// and the output gradient dy (see GPTFFN.paramGrads).
func (f *MixtralFFN) paramGrads(pool *tensor.Pool, x, p, da, du, dy *tensor.Tensor, grads GradDst) {
	grads.weight(pool, 1, f.w2, p, dy)
	grads.weight(pool, 0, f.w1, x, da)
	grads.weight(pool, 2, f.w3, x, du)
}

// addColSum accumulates the column sums of m (n, d) into acc (d). It works
// on the raw storage: the variadic At/Set accessors allocate their index
// slice, which on the per-token bias-gradient path dominated the backward
// pass's allocation profile.
func addColSum(acc, m *tensor.Tensor) {
	ad := acc.Data()
	for i := 0; i < m.Dim(0); i++ {
		for j, v := range m.Row(i) {
			ad[j] += v
		}
	}
}
