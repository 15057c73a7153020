package moe

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// colPlane cuts the (rows, ch−cl) plane that columns [cl, ch) of the
// (rows, w) weight matrix w are copied into off the head of scratch, and
// returns it and what is left of scratch; at full width the pass multiplies
// by w itself and the plane is nil.
func colPlane(w *tensor.Tensor, cl, ch int, scratch []float64) (*tensor.Tensor, []float64) {
	if ch-cl == w.Dim(1) {
		return nil, scratch
	}
	return plane(scratch, w.Dim(0), ch-cl)
}

// weightCols returns columns [cl, …) of the weight matrix w as a dense matrix
// the standard kernel can run on: w itself when c, its colPlane, is nil,
// else c refreshed from w. Element (i, j) of x·c equals element (i, cl+j) of
// x·W bit for bit: the kernel accumulates each output element over k in an
// order independent of the output width.
func weightCols(w, c *tensor.Tensor, cl int) *tensor.Tensor {
	if c == nil {
		return w
	}
	for i := range w.Dim(0) {
		copy(c.Row(i), w.Row(i)[cl:])
	}
	return c
}

// weightColsElems is the scratch colPlane takes.
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
	overwrite  bool
}

// BeginBackward implements ExpertPass for both FFN passes.
func (b *backBufs) BeginBackward(dy, dx, hidden *tensor.Tensor, overwrite bool) {
	*b = backBufs{dy, dx, hidden, overwrite}
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

// Params implements Expert.
func (f *GPTFFN) Params() []*Param { return []*Param{f.w1, f.b1, f.w2, f.b2} }

// FwdMACs implements Expert: two GEMMs of n·M·H MACs each.
func (f *GPTFFN) FwdMACs(n int) float64 { return 2 * float64(n) * float64(f.m) * float64(f.h) }

// HiddenWidth implements Expert: forward exchanges the activation
// a = GeLU(x·W1 + b1), backward its gradient da, one band of width H each.
func (f *GPTFFN) HiddenWidth() int { return f.h }
func (f *GPTFFN) FwdBands() int    { return 1 }
func (f *GPTFFN) BwdBands() int    { return 1 }

// ScratchElems implements Expert: the pre-activation columns and, for
// a proper column range, that range of W1.
func (f *GPTFFN) ScratchElems(n, cl, ch int) int {
	return n*(ch-cl) + weightColsElems(f.w1.W, cl, ch)
}

// Begin implements Expert.
func (f *GPTFFN) Begin(b PassBufs) ExpertPass {
	p := &gptPass{f: f, PassBufs: b}
	p.w1c, b.Scratch = colPlane(f.w1.W, b.Cl, b.Ch, b.Scratch)
	p.hpre, _ = plane(b.Scratch, b.X.Dim(0), b.Ch-b.Cl)
	return p
}

// gptPass is one GPTFFN pass.
type gptPass struct {
	f *GPTFFN
	PassBufs
	backBufs
	w1, w1c *tensor.Tensor // (M, cw) columns [Cl, Ch) of W1: W1 itself, or their copy in w1c
	hpre    *tensor.Tensor // (n, cw) pre-activation x·W1 + b1
}

// BeginForward implements ExpertPass: W1's columns from the live W1.
func (p *gptPass) BeginForward() { p.w1 = weightCols(p.f.w1.W, p.w1c, p.Cl) }

// ForwardHidden implements ExpertPass: the pass's columns of h = x·W1 + b1,
// and a = GeLU(h) straight into their window of the exchange rows.
func (p *gptPass) ForwardHidden(ws tensor.Windows) {
	p.Pool.MatMulRowsInto(p.hpre, ws, p.X, ws, p.w1)
	cw, w := p.Ch-p.Cl, p.f.h
	hp, hf, b1 := p.hpre.Data(), p.Hidden.Data(), p.f.b1.W.Data()[p.Cl:p.Ch]
	for _, t := range ws.All() {
		h := hp[t*cw : (t+1)*cw]
		tensor.AddRow(h, b1)
		tensor.GeLURow(hf[t*w+p.Cl:t*w+p.Ch], h)
	}
}

// ForwardOut implements ExpertPass: y = a·W2 + b2 on full-width rows.
func (p *gptPass) ForwardOut(ws tensor.Windows) {
	p.Pool.MatMulRowsInto(p.Out, ws, p.Hidden, ws, p.f.w2.W)
	b2 := p.f.b2.W.Data()
	for _, t := range ws.All() {
		tensor.AddRow(p.Out.Row(t), b2)
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
func (p *gptPass) Finish(rows int) {
	f, o := p.f, p.overwrite
	weightGrad(p.Pool, f.w2, p.Hidden, p.dy, rows, o)
	biasGrad(f.b2, p.dy, rows, o)
	weightGrad(p.Pool, f.w1, p.X, p.hb, rows, o)
	biasGrad(f.b1, p.hb, rows, o)
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

// Params implements Expert.
func (f *MixtralFFN) Params() []*Param { return []*Param{f.w1, f.w2, f.w3} }

// FwdMACs implements Expert: three GEMMs of n·M·H MACs each.
func (f *MixtralFFN) FwdMACs(n int) float64 { return 3 * float64(n) * float64(f.m) * float64(f.h) }

// HiddenWidth implements Expert: forward exchanges the gated product
// p = SiLU(x·W1) ⊙ (x·W3) (one band); backward exchanges the gradients da
// and du of the two projections (two bands).
func (f *MixtralFFN) HiddenWidth() int { return f.h }
func (f *MixtralFFN) FwdBands() int    { return 1 }
func (f *MixtralFFN) BwdBands() int    { return 2 }

// ScratchElems implements Expert: the columns of x·W1, x·W3 and
// SiLU(x·W1) and, for a proper column range, that range of W1 and W3.
func (f *MixtralFFN) ScratchElems(n, cl, ch int) int {
	return 3*n*(ch-cl) + 2*weightColsElems(f.w1.W, cl, ch)
}

// Begin implements Expert.
func (f *MixtralFFN) Begin(b PassBufs) ExpertPass {
	p := &mixtralPass{f: f, PassBufs: b, n: b.X.Dim(0)}
	s, cw := b.Scratch, b.Ch-b.Cl
	p.w1c, s = colPlane(f.w1.W, b.Cl, b.Ch, s)
	p.w3c, s = colPlane(f.w3.W, b.Cl, b.Ch, s)
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
	n                int
	w1, w3, w1c, w3c *tensor.Tensor // (M, cw) columns [Cl, Ch) of W1 and W3, as gptPass's w1
	g, u, a          *tensor.Tensor // (n, cw) columns of x·W1, x·W3 and SiLU(x·W1)
	du               *tensor.Tensor // (n, W) band 1 of the backward exchange buffer
}

// BeginBackward implements ExpertPass, and views band 1 of the exchange
// buffer once per buffer: a warm backward gets the one it had.
func (p *mixtralPass) BeginBackward(dy, dx, hidden *tensor.Tensor, overwrite bool) {
	if hidden != p.hb {
		p.du = hidden.Slice(p.n, 2*p.n)
	}
	p.backBufs.BeginBackward(dy, dx, hidden, overwrite)
}

// BeginForward implements ExpertPass: W1's and W3's columns from the live
// W1 and W3.
func (p *mixtralPass) BeginForward() {
	p.w1, p.w3 = weightCols(p.f.w1.W, p.w1c, p.Cl), weightCols(p.f.w3.W, p.w3c, p.Cl)
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
func (p *mixtralPass) Finish(rows int) {
	f, o := p.f, p.overwrite
	weightGrad(p.Pool, f.w2, p.Hidden, p.dy, rows, o)
	weightGrad(p.Pool, f.w1, p.X, p.hb, rows, o) // band 0 heads the buffer
	weightGrad(p.Pool, f.w3, p.X, p.du, rows, o)
}
