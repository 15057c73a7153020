package moe

import (
	"repro/internal/tensor"
)

// ChunkedExpert is the chunk-granular execution contract the stream
// runtime drives (§4.1): forward and backward run over disjoint row ranges
// of one (n, M) block — so a pipeline can start computing as soon as the
// first dispatch chunk lands — while every parameter-gradient reduction is
// deferred to one full-block pass. Row-wise operations (GEMM output rows,
// activations, bias adds) are computed per chunk; reductions over the row
// dimension (weight gradients, bias column sums) happen once in
// FinishBackward over the complete buffers. That split is what makes the
// chunked pass bit-identical to the monolithic IntoExpert pass at every
// pipeline degree: no floating-point reduction is ever re-associated.
//
// Contract: BeginChunked is called once per block; ForwardChunk calls must
// tile [0, n) with disjoint [lo, hi) ranges before any BackwardChunk;
// BackwardChunk ranges must tile [0, n) before the single FinishBackward
// call, which releases the cache's pooled buffers. Calls on one cache must
// not run concurrently (the runtime serializes them on the owning rank's
// compute stream). Forward-only callers may drop the cache and leak its
// pooled buffers to the GC, as with ForwardInto.
//
// The pool passed to BeginChunked is the worker budget of the stream that
// will drive the cache: every GEMM the chunk methods run must fan out onto
// it (nil designates the process-default pool), so concurrent compute
// streams stay inside their planned allotments instead of oversubscribing
// one shared queue. The pool never changes a result — kernels are
// bit-identical at any width.
type ChunkedExpert interface {
	Expert
	// BeginChunked prepares a chunked pass over the full (n, M) input view
	// x writing into the full (n, M) output view out, with the chunk
	// methods' kernels bound to pool (nil = default).
	BeginChunked(x, out *tensor.Tensor, pool *tensor.Pool) ChunkedCache
	// ForwardChunk computes output rows [lo, hi).
	ForwardChunk(cc ChunkedCache, lo, hi int)
	// BackwardChunk computes input-gradient rows [lo, hi) of dx from rows
	// [lo, hi) of dy (both full (n, M) views), stashing what the deferred
	// parameter-gradient pass needs.
	BackwardChunk(cc ChunkedCache, dy, dx *tensor.Tensor, lo, hi int)
	// FinishBackward performs the deferred full-block parameter-gradient
	// reductions (given the full dy view) into grads and releases pooled
	// state.
	FinishBackward(cc ChunkedCache, dy *tensor.Tensor, grads GradDst)
}

// ChunkedCache is the opaque full-block state of one chunked pass.
type ChunkedCache interface{}

// gptChunkCache is GPTFFN's chunked-pass state: full-block views supplied
// by the caller plus pooled full-block activation buffers that chunks fill
// range by range.
type gptChunkCache struct {
	x, out *tensor.Tensor // (n, M) views owned by the caller
	h, a   *tensor.Tensor // (n, H) pooled
	da     *tensor.Tensor // (n, H) pooled, lazily on first BackwardChunk
	pool   *tensor.Pool   // the driving stream's worker budget (nil = default)
}

// BeginChunked implements ChunkedExpert.
func (f *GPTFFN) BeginChunked(x, out *tensor.Tensor, pool *tensor.Pool) ChunkedCache {
	n := x.Dim(0)
	return &gptChunkCache{x: x, out: out, h: tensor.GetUninit(n, f.h), a: tensor.GetUninit(n, f.h), pool: pool}
}

// ForwardChunk implements ChunkedExpert. Every step is row-wise, so the
// rows it produces are bit-identical to a monolithic ForwardInto.
func (f *GPTFFN) ForwardChunk(cc ChunkedCache, lo, hi int) {
	if lo >= hi {
		return
	}
	c := cc.(*gptChunkCache)
	xv, hv, av, ov := c.x.Slice(lo, hi), c.h.Slice(lo, hi), c.a.Slice(lo, hi), c.out.Slice(lo, hi)
	c.pool.MatMulInto(hv, xv, f.w1.W)
	tensor.AddRowVectorInPlace(hv, f.b1.W)
	tensor.GeLUInto(av, hv)
	c.pool.MatMulInto(ov, av, f.w2.W)
	tensor.AddRowVectorInPlace(ov, f.b2.W)
}

// BackwardChunk implements ChunkedExpert: dX rows only; gradients of W1,
// W2, b1, b2 wait for FinishBackward.
func (f *GPTFFN) BackwardChunk(cc ChunkedCache, dy, dx *tensor.Tensor, lo, hi int) {
	c := cc.(*gptChunkCache)
	if c.da == nil {
		c.da = tensor.GetUninit(c.x.Dim(0), f.h)
	}
	if lo >= hi {
		return
	}
	dyv, dav, dxv := dy.Slice(lo, hi), c.da.Slice(lo, hi), dx.Slice(lo, hi)
	c.pool.MatMulT2Into(dav, dyv, f.w2.W)
	hd := c.h.Slice(lo, hi).Data()
	dd := dav.Data()
	for i := range dd {
		dd[i] *= tensor.GeLUGrad(hd[i])
	}
	c.pool.MatMulT2Into(dxv, dav, f.w1.W)
}

// FinishBackward implements ChunkedExpert: the same full-block GEMMs and
// column sums as BackwardInto, in the same accumulation order.
func (f *GPTFFN) FinishBackward(cc ChunkedCache, dy *tensor.Tensor, grads GradDst) {
	c := cc.(*gptChunkCache)
	if c.da == nil {
		c.da = tensor.Get(dy.Dim(0), f.h)
	}
	f.paramGrads(c.pool, c.x, c.a, c.da, dy, grads)
	tensor.Put(c.da)
	tensor.Put(c.a)
	tensor.Put(c.h)
}

// mixtralChunkCache is MixtralFFN's chunked-pass state.
type mixtralChunkCache struct {
	x, out  *tensor.Tensor // (n, M) views owned by the caller
	g, u, a *tensor.Tensor // (n, H) pooled
	da, du  *tensor.Tensor // (n, H) pooled, lazily on first BackwardChunk
	pool    *tensor.Pool   // the driving stream's worker budget (nil = default)
}

// BeginChunked implements ChunkedExpert.
func (f *MixtralFFN) BeginChunked(x, out *tensor.Tensor, pool *tensor.Pool) ChunkedCache {
	n := x.Dim(0)
	return &mixtralChunkCache{
		x: x, out: out,
		g:    tensor.GetUninit(n, f.h),
		u:    tensor.GetUninit(n, f.h),
		a:    tensor.GetUninit(n, f.h),
		pool: pool,
	}
}

// ForwardChunk implements ChunkedExpert.
func (f *MixtralFFN) ForwardChunk(cc ChunkedCache, lo, hi int) {
	if lo >= hi {
		return
	}
	c := cc.(*mixtralChunkCache)
	xv, ov := c.x.Slice(lo, hi), c.out.Slice(lo, hi)
	gv, uv, av := c.g.Slice(lo, hi), c.u.Slice(lo, hi), c.a.Slice(lo, hi)
	c.pool.MatMulInto(gv, xv, f.w1.W)
	c.pool.MatMulInto(uv, xv, f.w3.W)
	tensor.SiLUInto(av, gv)
	p := tensor.GetUninit(hi-lo, f.h)
	tensor.MulInto(p, av, uv)
	c.pool.MatMulInto(ov, p, f.w2.W)
	tensor.Put(p)
}

// BackwardChunk implements ChunkedExpert.
func (f *MixtralFFN) BackwardChunk(cc ChunkedCache, dy, dx *tensor.Tensor, lo, hi int) {
	c := cc.(*mixtralChunkCache)
	if c.da == nil {
		c.da = tensor.GetUninit(c.x.Dim(0), f.h)
		c.du = tensor.GetUninit(c.x.Dim(0), f.h)
	}
	if lo >= hi {
		return
	}
	dyv, dxv := dy.Slice(lo, hi), dx.Slice(lo, hi)
	gv, uv, av := c.g.Slice(lo, hi), c.u.Slice(lo, hi), c.a.Slice(lo, hi)
	dav, duv := c.da.Slice(lo, hi), c.du.Slice(lo, hi)
	dp := tensor.GetUninit(hi-lo, f.h)
	c.pool.MatMulT2Into(dp, dyv, f.w2.W)
	tensor.MulInto(dav, dp, uv)
	tensor.MulInto(duv, dp, av)
	tensor.Put(dp)
	gd := gv.Data()
	dd := dav.Data()
	for i := range dd {
		dd[i] *= tensor.SiLUGrad(gd[i])
	}
	c.pool.MatMulT2Into(dxv, dav, f.w1.W)
	dxu := tensor.GetUninit(hi-lo, f.m)
	c.pool.MatMulT2Into(dxu, duv, f.w3.W)
	tensor.AddInPlace(dxv, dxu)
	tensor.Put(dxu)
}

// FinishBackward implements ChunkedExpert.
func (f *MixtralFFN) FinishBackward(cc ChunkedCache, dy *tensor.Tensor, grads GradDst) {
	c := cc.(*mixtralChunkCache)
	n := dy.Dim(0)
	if c.da == nil {
		c.da = tensor.Get(n, f.h)
		c.du = tensor.Get(n, f.h)
	}
	p := tensor.GetUninit(n, f.h)
	tensor.MulInto(p, c.a, c.u)
	f.paramGrads(c.pool, c.x, p, c.da, c.du, dy, grads)
	tensor.Put(p)
	tensor.Put(c.da)
	tensor.Put(c.du)
	tensor.Put(c.a)
	tensor.Put(c.g)
	tensor.Put(c.u)
}
