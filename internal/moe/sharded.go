package moe

import (
	"repro/internal/tensor"
)

// ShardedExpert is the shard-granular execution contract StrategyESP
// drives (§4's expert-sharding parallelism): every shard-group member
// computes a slice of each GEMM stage instead of owning whole experts.
// The decomposition is chosen so that no floating-point reduction is ever
// re-associated, which is what makes the sharded pass bit-identical to
// the monolithic IntoExpert pass:
//
//   - stage-1 GEMMs are sharded over their OUTPUT COLUMNS [cl, ch): each
//     hidden element is one complete dot product over M, computed wholly
//     by one member in the monolithic kernel's k-order;
//   - the column shards are AllGather'd into the full-width hidden
//     exchange buffer (pure concatenation);
//   - stage-2 GEMMs are sharded over TOKEN ROWS: each output row is one
//     complete accumulation over the hidden width.
//
// A Megatron-style k-sharded second GEMM would produce partial sums whose
// ReduceScatter re-associates the reduction; the row-sharded form instead
// leaves every output element with exactly one non-zero contributor, so
// the strategy's ReduceScatter sums are exact (the RankGrads argument:
// adding zeros never rounds) while the collective volumes keep the §4
// AG/RS structure.
//
// Exchange buffers: hf is (FwdBands·n, HiddenWidth), hb is
// (BwdBands·n, HiddenWidth) — bands are stacked n-row planes sharing the
// column sharding (Mixtral's backward exchanges d(SiLU-gated) and
// d(up-projection) as two bands). The caller owns both buffers and fills
// the columns outside [cl, ch) from the other members' AllGather'd
// shards before calling the full-width stages.
//
// Contract: BeginSharded is called once per (expert, member) with the
// member's buffers and column shard; ForwardHidden calls must tile [0, n)
// before a row's ForwardOut; BackwardHidden must tile [0, n) before a
// row's BackwardIn; FinishSharded runs once, on exactly one member per
// expert, after the full hb and dy are assembled, and releases the
// member's pooled state — other members release theirs via DropSharded.
// Calls on one cache must not run concurrently.
//
// The pool passed to BeginSharded is the member's compute-stream worker
// budget: every GEMM the shard methods run must fan out onto it (nil
// designates the process-default pool). One expert instance is driven by
// R members concurrently under ESP, each through its own cache — binding
// the pool to the cache rather than the expert is what keeps those
// members inside their own stream allotments.
type ShardedExpert interface {
	Expert
	// HiddenWidth is the sharded column dimension of the exchange buffers.
	HiddenWidth() int
	// FwdBands and BwdBands are the stacked n-row planes of hf and hb.
	FwdBands() int
	BwdBands() int
	// BeginSharded prepares one member's state for a sharded pass over the
	// full (n, M) input view x, writing the full (n, M) output view out,
	// with hidden exchange buffer hf, column shard [cl, ch) and the shard
	// methods' kernels bound to pool (nil = default).
	BeginSharded(x, out, hf *tensor.Tensor, cl, ch int, pool *tensor.Pool) ShardedCache
	// ForwardHidden computes hf columns [cl, ch) for token rows [lo, hi).
	ForwardHidden(sc ShardedCache, lo, hi int)
	// ForwardOut computes out rows [lo, hi) from full-width hf rows.
	ForwardOut(sc ShardedCache, lo, hi int)
	// BackwardHidden computes hb columns [cl, ch) for token rows [lo, hi)
	// from the full dy view (the adjoint of stage 2, column-restricted).
	BackwardHidden(sc ShardedCache, dy, hb *tensor.Tensor, lo, hi int)
	// BackwardIn computes dx rows [lo, hi) from full-width hb rows.
	BackwardIn(sc ShardedCache, dy, dx, hb *tensor.Tensor, lo, hi int)
	// FinishSharded puts the full-block parameter gradients, from the
	// complete x, hf, hb and dy buffers — the same GEMMs in the same order
	// as the monolithic backward — into grads and releases pooled state.
	FinishSharded(sc ShardedCache, dy, hb *tensor.Tensor, grads GradDst)
	// DropSharded releases a non-owner member's pooled state after the
	// backward pass (forward-only callers may instead leak to the GC, as
	// with ForwardInto caches).
	DropSharded(sc ShardedCache)
}

// ShardedCache is the opaque per-member state of one sharded pass.
type ShardedCache interface{}

// copyCols copies columns [cl, ch) of a (rows, w) matrix held in src into
// a dense (rows, ch-cl) destination, or scatters back when gather is
// false. It is the local column re-layout between an expert's dense
// column-shard compute and the full-width exchange buffers.
func copyCols(dense *tensor.Tensor, full *tensor.Tensor, lo, hi, cl, ch int, toFull bool) {
	for t := lo; t < hi; t++ {
		fr := full.Row(t)[cl:ch]
		dr := dense.Row(t - lo)
		if toFull {
			copy(fr, dr)
		} else {
			copy(dr, fr)
		}
	}
}

// sliceWeightCols copies columns [cl, ch) of a (rows, w) weight matrix
// into a pooled dense (rows, ch-cl) matrix, so the column-sharded GEMM
// can run the standard kernel. Element (i, j) of dense·B equals element
// (i, cl+j) of dense·W bit for bit: the kernel accumulates each output
// element over k in an order independent of the output width.
func sliceWeightCols(w *tensor.Tensor, cl, ch int) *tensor.Tensor {
	rows := w.Dim(0)
	out := tensor.GetUninit(rows, ch-cl)
	for i := 0; i < rows; i++ {
		copy(out.Row(i), w.Row(i)[cl:ch])
	}
	return out
}

// gptShardCache is GPTFFN's per-member sharded state.
type gptShardCache struct {
	x, out, hf *tensor.Tensor // caller-owned views/buffers
	cl, ch     int
	w1c        *tensor.Tensor // (M, cw) pooled column slice of W1
	hpre       *tensor.Tensor // (n, cw) pooled pre-activation columns
	pool       *tensor.Pool   // the member's compute-stream budget (nil = default)
}

// HiddenWidth implements ShardedExpert: the exchanged activation is
// a = GeLU(x·W1 + b1), one band of width H.
func (f *GPTFFN) HiddenWidth() int { return f.h }
func (f *GPTFFN) FwdBands() int    { return 1 }
func (f *GPTFFN) BwdBands() int    { return 1 }

// BeginSharded implements ShardedExpert.
func (f *GPTFFN) BeginSharded(x, out, hf *tensor.Tensor, cl, ch int, pool *tensor.Pool) ShardedCache {
	c := &gptShardCache{x: x, out: out, hf: hf, cl: cl, ch: ch, pool: pool}
	if ch > cl {
		c.w1c = sliceWeightCols(f.w1.W, cl, ch)
		c.hpre = tensor.GetUninit(x.Dim(0), ch-cl)
	}
	return c
}

// ForwardHidden implements ShardedExpert: the member's columns of
// h = x·W1 + b1 and a = GeLU(h), bit-identical to the same columns of the
// monolithic stage.
func (f *GPTFFN) ForwardHidden(sc ShardedCache, lo, hi int) {
	c := sc.(*gptShardCache)
	if lo >= hi || c.ch <= c.cl {
		return
	}
	hv := c.hpre.Slice(lo, hi)
	c.pool.MatMulInto(hv, c.x.Slice(lo, hi), c.w1c)
	tensor.AddRowVectorInPlace(hv, f.b1.W.Slice(c.cl, c.ch))
	av := tensor.GetUninit(hi-lo, c.ch-c.cl)
	tensor.GeLUInto(av, hv)
	copyCols(av, c.hf, lo, hi, c.cl, c.ch, true)
	tensor.Put(av)
}

// ForwardOut implements ShardedExpert: full-width stage 2 on the member's
// token rows, exactly ForwardChunk's second GEMM.
func (f *GPTFFN) ForwardOut(sc ShardedCache, lo, hi int) {
	c := sc.(*gptShardCache)
	if lo >= hi {
		return
	}
	ov := c.out.Slice(lo, hi)
	c.pool.MatMulInto(ov, c.hf.Slice(lo, hi), f.w2.W)
	tensor.AddRowVectorInPlace(ov, f.b2.W)
}

// BackwardHidden implements ShardedExpert: the member's columns of
// da = (dy·W2ᵀ) ⊙ GeLU'(h), using the row-contiguous W2 slice so no copy
// is needed.
func (f *GPTFFN) BackwardHidden(sc ShardedCache, dy, hb *tensor.Tensor, lo, hi int) {
	c := sc.(*gptShardCache)
	if lo >= hi || c.ch <= c.cl {
		return
	}
	dav := tensor.GetUninit(hi-lo, c.ch-c.cl)
	c.pool.MatMulT2Into(dav, dy.Slice(lo, hi), f.w2.W.Slice(c.cl, c.ch))
	hd := c.hpre.Slice(lo, hi).Data()
	dd := dav.Data()
	for i := range dd {
		dd[i] *= tensor.GeLUGrad(hd[i])
	}
	copyCols(dav, hb, lo, hi, c.cl, c.ch, true)
	tensor.Put(dav)
}

// BackwardIn implements ShardedExpert: dx rows from the full-width da.
func (f *GPTFFN) BackwardIn(sc ShardedCache, dy, dx, hb *tensor.Tensor, lo, hi int) {
	if lo >= hi {
		return
	}
	sc.(*gptShardCache).pool.MatMulT2Into(dx.Slice(lo, hi), hb.Slice(lo, hi), f.w1.W)
}

// FinishSharded implements ShardedExpert: FinishBackward's reduction with
// a := hf and da := hb.
func (f *GPTFFN) FinishSharded(sc ShardedCache, dy, hb *tensor.Tensor, grads GradDst) {
	c := sc.(*gptShardCache)
	f.paramGrads(c.pool, c.x, c.hf, hb, dy, grads)
	f.DropSharded(sc)
}

// DropSharded implements ShardedExpert.
func (f *GPTFFN) DropSharded(sc ShardedCache) {
	c := sc.(*gptShardCache)
	tensor.Put(c.hpre)
	tensor.Put(c.w1c)
	c.hpre, c.w1c = nil, nil
}

// mixtralShardCache is MixtralFFN's per-member sharded state.
type mixtralShardCache struct {
	x, out, hf *tensor.Tensor
	cl, ch     int
	w1c, w3c   *tensor.Tensor // (M, cw) pooled column slices
	gpre, u, a *tensor.Tensor // (n, cw) pooled member columns
	pool       *tensor.Pool   // the member's compute-stream budget (nil = default)
}

// HiddenWidth implements ShardedExpert: forward exchanges the gated
// product p = SiLU(x·W1) ⊙ (x·W3) (one band); backward exchanges da and
// du (two bands).
func (f *MixtralFFN) HiddenWidth() int { return f.h }
func (f *MixtralFFN) FwdBands() int    { return 1 }
func (f *MixtralFFN) BwdBands() int    { return 2 }

// BeginSharded implements ShardedExpert.
func (f *MixtralFFN) BeginSharded(x, out, hf *tensor.Tensor, cl, ch int, pool *tensor.Pool) ShardedCache {
	c := &mixtralShardCache{x: x, out: out, hf: hf, cl: cl, ch: ch, pool: pool}
	if ch > cl {
		n := x.Dim(0)
		c.w1c = sliceWeightCols(f.w1.W, cl, ch)
		c.w3c = sliceWeightCols(f.w3.W, cl, ch)
		c.gpre = tensor.GetUninit(n, ch-cl)
		c.u = tensor.GetUninit(n, ch-cl)
		c.a = tensor.GetUninit(n, ch-cl)
	}
	return c
}

// ForwardHidden implements ShardedExpert.
func (f *MixtralFFN) ForwardHidden(sc ShardedCache, lo, hi int) {
	c := sc.(*mixtralShardCache)
	if lo >= hi || c.ch <= c.cl {
		return
	}
	xv := c.x.Slice(lo, hi)
	gv, uv, av := c.gpre.Slice(lo, hi), c.u.Slice(lo, hi), c.a.Slice(lo, hi)
	c.pool.MatMulInto(gv, xv, c.w1c)
	c.pool.MatMulInto(uv, xv, c.w3c)
	tensor.SiLUInto(av, gv)
	pt := tensor.GetUninit(hi-lo, c.ch-c.cl)
	tensor.MulInto(pt, av, uv)
	copyCols(pt, c.hf, lo, hi, c.cl, c.ch, true)
	tensor.Put(pt)
}

// ForwardOut implements ShardedExpert.
func (f *MixtralFFN) ForwardOut(sc ShardedCache, lo, hi int) {
	c := sc.(*mixtralShardCache)
	if lo >= hi {
		return
	}
	c.pool.MatMulInto(c.out.Slice(lo, hi), c.hf.Slice(lo, hi), f.w2.W)
}

// BackwardHidden implements ShardedExpert: band 0 of hb receives the
// member's columns of da, band 1 those of du.
func (f *MixtralFFN) BackwardHidden(sc ShardedCache, dy, hb *tensor.Tensor, lo, hi int) {
	c := sc.(*mixtralShardCache)
	if lo >= hi || c.ch <= c.cl {
		return
	}
	n := c.x.Dim(0)
	cw := c.ch - c.cl
	dpt := tensor.GetUninit(hi-lo, cw)
	c.pool.MatMulT2Into(dpt, dy.Slice(lo, hi), f.w2.W.Slice(c.cl, c.ch))
	dat := tensor.GetUninit(hi-lo, cw)
	dut := tensor.GetUninit(hi-lo, cw)
	tensor.MulInto(dat, dpt, c.u.Slice(lo, hi))
	tensor.MulInto(dut, dpt, c.a.Slice(lo, hi))
	tensor.Put(dpt)
	gd := c.gpre.Slice(lo, hi).Data()
	dd := dat.Data()
	for i := range dd {
		dd[i] *= tensor.SiLUGrad(gd[i])
	}
	copyCols(dat, hb, lo, hi, c.cl, c.ch, true)
	copyCols(dut, hb, n+lo, n+hi, c.cl, c.ch, true)
	tensor.Put(dat)
	tensor.Put(dut)
}

// BackwardIn implements ShardedExpert: dx rows from the full-width da
// (band 0) and du (band 1), in the monolithic accumulation order.
func (f *MixtralFFN) BackwardIn(sc ShardedCache, dy, dx, hb *tensor.Tensor, lo, hi int) {
	c := sc.(*mixtralShardCache)
	if lo >= hi {
		return
	}
	n := c.x.Dim(0)
	dxv := dx.Slice(lo, hi)
	c.pool.MatMulT2Into(dxv, hb.Slice(lo, hi), f.w1.W)
	dxu := tensor.GetUninit(hi-lo, f.m)
	c.pool.MatMulT2Into(dxu, hb.Slice(n+lo, n+hi), f.w3.W)
	tensor.AddInPlace(dxv, dxu)
	tensor.Put(dxu)
}

// FinishSharded implements ShardedExpert: FinishBackward's reduction with
// p := hf, da := hb band 0, du := hb band 1.
func (f *MixtralFFN) FinishSharded(sc ShardedCache, dy, hb *tensor.Tensor, grads GradDst) {
	c := sc.(*mixtralShardCache)
	n := c.x.Dim(0)
	f.paramGrads(c.pool, c.x, c.hf, hb.Slice(0, n), hb.Slice(n, 2*n), dy, grads)
	f.DropSharded(sc)
}

// DropSharded implements ShardedExpert.
func (f *MixtralFFN) DropSharded(sc ShardedCache) {
	c := sc.(*mixtralShardCache)
	tensor.Put(c.gpre)
	tensor.Put(c.u)
	tensor.Put(c.a)
	tensor.Put(c.w1c)
	tensor.Put(c.w3c)
	c.gpre, c.u, c.a, c.w1c, c.w3c = nil, nil, nil, nil, nil
}
