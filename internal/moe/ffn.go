package moe

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// weightCols returns columns [cl, ch) of the (rows, w) weight matrix as a
// dense (rows, ch−cl) matrix the standard kernel can run on, and what is left
// of scratch: the matrix itself at full width, a copy at the head of scratch
// otherwise. Element (i, j) of x·copy equals element (i, cl+j) of x·W bit for
// bit: the kernel accumulates each output element over k in an order
// independent of the output width.
func weightCols(w *tensor.Tensor, cl, ch int, scratch []float64) (*tensor.Tensor, []float64) {
	if ch-cl == w.Dim(1) {
		return w, scratch
	}
	out, rest := plane(scratch, w.Dim(0), ch-cl)
	for i := 0; i < w.Dim(0); i++ {
		copy(out.Row(i), w.Row(i)[cl:ch])
	}
	return out, rest
}

// weightColsElems is the scratch weightCols takes.
func weightColsElems(w *tensor.Tensor, cl, ch int) int {
	if ch-cl == w.Dim(1) {
		return 0
	}
	return w.Dim(0) * (ch - cl)
}

// plane cuts an (n, cw) matrix off the head of scratch.
func plane(scratch []float64, n, cw int) (*tensor.Tensor, []float64) {
	return tensor.FromData(scratch[:n*cw:n*cw], n, cw), scratch[n*cw:]
}

// backBufs is the backward's memory as BeginBackward binds it.
type backBufs struct {
	dy, dx, hb *tensor.Tensor
	grads      GradDst
}

// BeginBackward implements ExpertPass for both FFN passes.
func (b *backBufs) BeginBackward(dy, dx, hidden *tensor.Tensor, grads GradDst) {
	*b = backBufs{dy, dx, hidden, grads}
}

// expertForward and expertBackward are Expert.Forward and Expert.Backward of
// a staged expert: one whole-block pass into new tensors.
func expertForward(se StagedExpert, x *tensor.Tensor) (*tensor.Tensor, ExpertCache) {
	y := tensor.New(x.Shape()...)
	return y, forwardBlock(se, x, y)
}

func expertBackward(cache ExpertCache, dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(dy.Shape()...)
	cache.(*blockPass).backward(dy, dx, nil)
	return dx
}

// GPTFFN is the "simple" expert of Table 4: two dense layers with a GeLU,
// y = GeLU(x·W1 + b1)·W2 + b2, as in the GPT-2/GPT-3 feed-forward block.
type GPTFFN struct {
	m, h           int
	w1, b1, w2, b2 *Param
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
	return expertForward(f, x)
}

// Backward implements Expert.
func (f *GPTFFN) Backward(cache ExpertCache, dy *tensor.Tensor) *tensor.Tensor {
	return expertBackward(cache, dy)
}

// HiddenWidth implements StagedExpert: forward exchanges the activation
// a = GeLU(x·W1 + b1), backward its gradient da, one band of width H each.
func (f *GPTFFN) HiddenWidth() int { return f.h }
func (f *GPTFFN) FwdBands() int    { return 1 }
func (f *GPTFFN) BwdBands() int    { return 1 }

// ScratchElems implements StagedExpert: the pre-activation columns and, for
// a proper column range, that range of W1.
func (f *GPTFFN) ScratchElems(n, cl, ch int) int {
	return n*(ch-cl) + weightColsElems(f.w1.W, cl, ch)
}

// Begin implements StagedExpert.
func (f *GPTFFN) Begin(b PassBufs) ExpertPass {
	p := &gptPass{f: f, PassBufs: b}
	p.w1, b.Scratch = weightCols(f.w1.W, b.Cl, b.Ch, b.Scratch)
	p.hpre, _ = plane(b.Scratch, b.X.Dim(0), b.Ch-b.Cl)
	return p
}

// gptPass is one GPTFFN pass.
type gptPass struct {
	f *GPTFFN
	PassBufs
	backBufs
	w1   *tensor.Tensor // (M, cw) columns [Cl, Ch) of W1
	hpre *tensor.Tensor // (n, cw) pre-activation x·W1 + b1
}

// ForwardHidden implements ExpertPass: the pass's columns of h = x·W1 + b1,
// and a = GeLU(h) straight into their window of the exchange rows.
func (p *gptPass) ForwardHidden(ws tensor.Windows) {
	p.Pool.MatMulRowsInto(p.hpre, ws, p.X, ws, p.w1)
	cw, w := p.Ch-p.Cl, p.f.h
	hp, hf, b1 := p.hpre.Data(), p.Hidden.Data(), p.f.b1.W.Data()[p.Cl:p.Ch]
	for _, t := range ws.All() {
		h := hp[t*cw : (t+1)*cw]
		for j, b := range b1 {
			h[j] += b
		}
		tensor.GeLURow(hf[t*w+p.Cl:t*w+p.Ch], h)
	}
}

// ForwardOut implements ExpertPass: y = a·W2 + b2 on full-width rows.
func (p *gptPass) ForwardOut(ws tensor.Windows) {
	p.Pool.MatMulRowsInto(p.Out, ws, p.Hidden, ws, p.f.w2.W)
	b2 := p.f.b2.W.Data()
	for _, t := range ws.All() {
		y := p.Out.Row(t)
		for j, b := range b2 {
			y[j] += b
		}
	}
}

// BackwardHidden implements ExpertPass: the pass's columns of
// da = (dy·W2ᵀ) ⊙ GeLU'(h), from the row-contiguous rows [Cl, Ch) of W2,
// through one (N·Count, cw) buffer for the product.
func (p *gptPass) BackwardHidden(ws tensor.Windows) {
	cw, w := p.Ch-p.Cl, p.f.h
	d := tensor.GetUninit(ws.Len(), cw)
	p.Pool.MatMulT2RowsInto(d, ws.Packed(), p.dy, ws, p.f.w2.W, p.Cl, p.Ch)
	hp, hb := p.hpre.Data(), p.hb.Data()
	for i, t := range ws.All() {
		tensor.GeLUGradRow(hb[t*w+p.Cl:t*w+p.Ch], d.Row(i), hp[t*cw:(t+1)*cw])
	}
	tensor.Put(d)
}

// BackwardIn implements ExpertPass: dx = da·W1ᵀ on full-width rows.
func (p *gptPass) BackwardIn(ws tensor.Windows) {
	p.Pool.MatMulT2RowsInto(p.dx, ws, p.hb, ws, p.f.w1.W, 0, p.f.m)
}

// Finish implements ExpertPass, from the input x, the activation a, its
// gradient da and the output gradient dy.
func (p *gptPass) Finish() {
	f, g := p.f, p.grads
	g.weight(p.Pool, 2, f.w2, p.Hidden, p.dy)
	g.bias(3, f.b2, p.dy)
	g.weight(p.Pool, 0, f.w1, p.X, p.hb)
	g.bias(1, f.b1, p.hb)
}

// MixtralFFN is the SwiGLU expert used by Mixtral (§3.1):
// y = (SiLU(x·W1) ⊙ (x·W3))·W2, three matrices and no biases.
type MixtralFFN struct {
	m, h       int
	w1, w2, w3 *Param
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
	return expertForward(f, x)
}

// Backward implements Expert.
func (f *MixtralFFN) Backward(cache ExpertCache, dy *tensor.Tensor) *tensor.Tensor {
	return expertBackward(cache, dy)
}

// HiddenWidth implements StagedExpert: forward exchanges the gated product
// p = SiLU(x·W1) ⊙ (x·W3) (one band); backward exchanges the gradients da
// and du of the two projections (two bands).
func (f *MixtralFFN) HiddenWidth() int { return f.h }
func (f *MixtralFFN) FwdBands() int    { return 1 }
func (f *MixtralFFN) BwdBands() int    { return 2 }

// ScratchElems implements StagedExpert: the columns of x·W1, x·W3 and
// SiLU(x·W1) and, for a proper column range, that range of W1 and W3.
func (f *MixtralFFN) ScratchElems(n, cl, ch int) int {
	return 3*n*(ch-cl) + 2*weightColsElems(f.w1.W, cl, ch)
}

// Begin implements StagedExpert.
func (f *MixtralFFN) Begin(b PassBufs) ExpertPass {
	p := &mixtralPass{f: f, PassBufs: b, n: b.X.Dim(0)}
	s, cw := b.Scratch, b.Ch-b.Cl
	p.w1, s = weightCols(f.w1.W, b.Cl, b.Ch, s)
	p.w3, s = weightCols(f.w3.W, b.Cl, b.Ch, s)
	p.g, s = plane(s, p.n, cw)
	p.u, s = plane(s, p.n, cw)
	p.a, _ = plane(s, p.n, cw)
	return p
}

// mixtralPass is one MixtralFFN pass.
type mixtralPass struct {
	f *MixtralFFN
	PassBufs
	backBufs
	n       int
	w1, w3  *tensor.Tensor // (M, cw) columns [Cl, Ch) of W1 and W3
	g, u, a *tensor.Tensor // (n, cw) columns of x·W1, x·W3 and SiLU(x·W1)
}

// ForwardHidden implements ExpertPass.
func (p *mixtralPass) ForwardHidden(ws tensor.Windows) {
	p.Pool.MatMulRowsInto(p.g, ws, p.X, ws, p.w1)
	p.Pool.MatMulRowsInto(p.u, ws, p.X, ws, p.w3)
	w, hf := p.f.h, p.Hidden.Data()
	for _, t := range ws.All() {
		u, a, gated := p.u.Row(t), p.a.Row(t), hf[t*w+p.Cl:t*w+p.Ch]
		for j, g := range p.g.Row(t) {
			a[j] = tensor.SiLUAt(g)
			gated[j] = a[j] * u[j]
		}
	}
}

// ForwardOut implements ExpertPass.
func (p *mixtralPass) ForwardOut(ws tensor.Windows) {
	p.Pool.MatMulRowsInto(p.Out, ws, p.Hidden, ws, p.f.w2.W)
}

// BackwardHidden implements ExpertPass: band 0 of the exchange buffer
// receives the pass's columns of da, band 1 those of du.
func (p *mixtralPass) BackwardHidden(ws tensor.Windows) {
	d := tensor.GetUninit(ws.Len(), p.Ch-p.Cl)
	p.Pool.MatMulT2RowsInto(d, ws.Packed(), p.dy, ws, p.f.w2.W, p.Cl, p.Ch)
	w, hb := p.f.h, p.hb.Data()
	for i, t := range ws.All() {
		g, u, a := p.g.Row(t), p.u.Row(t), p.a.Row(t)
		da, du := hb[t*w+p.Cl:t*w+p.Ch], hb[(p.n+t)*w+p.Cl:(p.n+t)*w+p.Ch]
		for j, v := range d.Row(i) {
			da[j] = v * u[j] * tensor.SiLUGrad(g[j])
			du[j] = v * a[j]
		}
	}
	tensor.Put(d)
}

// BackwardIn implements ExpertPass: dx rows from the full-width da (band 0)
// and du (band 1), each product complete before the two are added.
func (p *mixtralPass) BackwardIn(ws tensor.Windows) {
	m := p.f.m
	p.Pool.MatMulT2RowsInto(p.dx, ws, p.hb, ws, p.f.w1.W, 0, m)
	dxu := tensor.GetUninit(ws.Len(), m)
	band := ws
	band.Lo += p.n // the same rows of band 1
	p.Pool.MatMulT2RowsInto(dxu, ws.Packed(), p.hb, band, p.f.w3.W, 0, m)
	for i, t := range ws.All() {
		dx := p.dx.Row(t)
		for j, v := range dxu.Row(i) {
			dx[j] += v
		}
	}
	tensor.Put(dxu)
}

// Finish implements ExpertPass, from the input x, the gated product, the
// gradients da and du and the output gradient dy.
func (p *mixtralPass) Finish() {
	f, g := p.f, p.grads
	g.weight(p.Pool, 1, f.w2, p.Hidden, p.dy)
	g.weight(p.Pool, 0, f.w1, p.X, p.hb.Slice(0, p.n))
	g.weight(p.Pool, 2, f.w3, p.X, p.hb.Slice(p.n, 2*p.n))
}
