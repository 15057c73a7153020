package moe

import (
	"fmt"

	"repro/internal/tensor"
)

// Expert is the compute sub-module of §3.1: a small feed-forward network
// applied to the (T, M) token block routed to it. Implementations own their
// parameters and gradient accumulators and provide a manual backward pass.
// An Expert that is not also a StagedExpert is adapted to that contract once,
// at NewMOELayer; it then computes each block whole, through a result copy.
//
// Concurrency contract: MOELayer runs *different* expert instances
// concurrently (never the same instance twice at once). An implementation
// therefore must not share mutable state — scratch buffers, RNGs, or Param
// tensors (e.g. tied weights) — with another expert instance in the same
// layer unless it synchronizes access. The layer detects the same instance
// registered at several indices and falls back to sequential execution for
// that case, but it cannot see state shared between distinct instances.
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

// StagedExpert is the one execution contract everything that runs an expert
// drives — the sequential layer, the degraded path and every parallel
// strategy (§3's unified Expert abstraction, §4.1's chunks, §4's expert
// sharding). A pass over one (n, M) block is two GEMM stages around a hidden
// exchange buffer, decomposed so that no floating-point reduction is ever
// re-associated, which is what makes a pass bit-identical however it is
// tiled and sharded:
//
//   - stage-1 GEMMs are restricted to hidden OUTPUT COLUMNS [Cl, Ch): each
//     hidden element is one complete dot product over M, computed wholly by
//     whoever owns its column;
//   - the column ranges of an expert-sharding group's members concatenate,
//     by AllGather, to the full-width exchange buffer; one member owning
//     [0, HiddenWidth) exchanges nothing and is §4.1's chunked expert;
//   - stage-2 GEMMs run over TOKEN ROWS: each output row is one complete
//     accumulation over the hidden width;
//   - every reduction over rows (weight gradients, bias column sums) waits
//     for one full-block Finish.
//
// A Megatron-style k-sharded second GEMM would produce partial sums whose
// ReduceScatter re-associates the reduction; the row-sharded form instead
// leaves every output element with exactly one non-zero contributor, so the
// strategies' ReduceScatter sums are exact (adding zeros never rounds).
type StagedExpert interface {
	Expert
	// HiddenWidth is the column dimension of the exchange buffers.
	HiddenWidth() int
	// FwdBands and BwdBands count the stacked n-row planes of the forward
	// and the backward exchange buffer, which share the column ranges
	// (Mixtral's backward exchanges d(SiLU-gated) and d(up-projection)).
	FwdBands() int
	BwdBands() int
	// ScratchElems is the size of PassBufs.Scratch for a pass over n rows
	// and hidden columns [cl, ch).
	ScratchElems(n, cl, ch int) int
	// Begin starts one pass of one holder of the column range b.Cl, b.Ch. One
	// expert instance is driven by g members at once under expert sharding,
	// each through its own pass, so everything mutable is the pass's.
	Begin(b PassBufs) ExpertPass
}

// PassBufs is the memory of one pass, all of it the caller's — workspace
// slots under a World, so an aborted pass leaves nothing to free. A pass
// reads hidden columns outside its range only after the caller filled them
// with the other members' columns.
type PassBufs struct {
	X, Out  *tensor.Tensor // the full (n, M) input and output blocks
	Hidden  *tensor.Tensor // (FwdBands·n, HiddenWidth) forward exchange buffer
	Scratch []float64      // ScratchElems(n, Cl, Ch) pass-private elements, kept to the end of the backward
	Cl, Ch  int            // this pass's hidden-column range
	// Pool is the kernel pool every GEMM of every stage must fan out onto
	// (nil designates the process-default pool). Under a World it is the
	// world's one pool, of width ⌊GOMAXPROCS/k⌋ for the k plan workers
	// that may each be inside a stage at once, so together they never
	// exceed the machine. It never changes a result.
	Pool *tensor.Pool
}

// ExpertPass is one pass's stage methods. A stage covers a window set of
// the pass's blocks (tensor.Windows: Count windows of N rows, Stride rows
// apart — one window is Count = 1) and should run each of its GEMMs as one
// product over the whole set, the row-form entry points of its PassBufs.Pool
// (MatMulRowsInto, MatMulT2RowsInto): a World's chunk is a few rows in each
// token-side rank's shard of a block, and one product per window would
// leave most windows under a kernel tile's height, on the portable loops,
// and walk the weights once per window.
// Calls on one pass never run concurrently. Forward: ForwardHidden calls
// tile [0, n) before a row's ForwardOut. Backward: BeginBackward, then
// BackwardHidden tiles [0, n) before a row's BackwardIn; Finish runs once,
// on one pass per expert, over fully assembled buffers. Stages may draw
// transient buffers from tensor.Get and Put them before returning.
type ExpertPass interface {
	// ForwardHidden computes Hidden columns [Cl, Ch) of the rows w.
	ForwardHidden(w tensor.Windows)
	// ForwardOut computes the rows w of Out from full-width Hidden rows.
	ForwardOut(w tensor.Windows)
	// BeginBackward binds the backward's memory: the full (n, M) output
	// gradient dy and input gradient dx, the (BwdBands·n, HiddenWidth)
	// exchange buffer, and where Finish puts the parameter gradients.
	BeginBackward(dy, dx, hidden *tensor.Tensor, grads GradDst)
	// BackwardHidden computes the backward exchange buffer's columns
	// [Cl, Ch) of the rows w from dy — stage 2's adjoint.
	BackwardHidden(w tensor.Windows)
	// BackwardIn computes the rows w of dx from full-width exchange rows.
	BackwardIn(w tensor.Windows)
	// Finish reduces the full-block parameter gradients into grads: the same
	// GEMMs and column sums in the same order however the pass was tiled.
	Finish()
}

// GradDst is where a pass puts one expert's parameter gradients. Nil is the
// Expert.Backward contract: they are added to each Param.G. Otherwise
// GradDst[i] is overwritten with the gradient of Params()[i] — during a
// training step it is the expert's span of its owner rank's resident
// buffer, which holds last step's replica, so the gradient is written where
// the Gradient-AllReduce reads it and nothing is zeroed first or copied
// afterwards.
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

// resolveStaged lists experts under the staged contract — an expert that
// implements it is itself, a plain Expert is adapted — and returns the index
// of the first adapted one, -1 when there is none.
func resolveStaged(experts []Expert) (staged []StagedExpert, plain int) {
	staged, plain = make([]StagedExpert, len(experts)), -1
	for e, ex := range experts {
		se, ok := ex.(StagedExpert)
		if !ok {
			se = adapted{ex, e}
			if plain < 0 {
				plain = e
			}
		}
		staged[e] = se
	}
	return staged, plain
}

// adapted runs a plain Expert, the one at index of its layer, under the
// staged contract: no hidden exchange, the wrapped Forward and Backward on
// the stage call that completes the tiling of [0, n). Its compute is
// therefore one range per pass, which the plan builder reads off the layer.
type adapted struct {
	Expert
	index int
}

func (adapted) HiddenWidth() int               { return 0 }
func (adapted) FwdBands() int                  { return 0 }
func (adapted) BwdBands() int                  { return 0 }
func (adapted) ScratchElems(n, cl, ch int) int { return 0 }

func (a adapted) Begin(b PassBufs) ExpertPass { return &adaptedPass{a: a, x: b.X, out: b.Out} }

type adaptedPass struct {
	a              adapted
	x, out, dy, dx *tensor.Tensor
	rows           int // covered so far by the stage that computes
	cache          ExpertCache
	grads          GradDst
}

// tiled counts the rows of w as covered and reports whether [0, n) is
// complete.
func (p *adaptedPass) tiled(w tensor.Windows) bool {
	if p.rows += w.Len(); p.rows < p.x.Dim(0) {
		return false
	}
	p.rows = 0
	return true
}

// result copies what the wrapped expert's op returned into the block dst. A
// short or mis-shaped result would leave stale rows behind, so it panics.
func (p *adaptedPass) result(dst, got *tensor.Tensor, op string) {
	if got == nil || !got.SameShape(dst) {
		panic(fmt.Sprintf("moe: expert %d (%s) %s returned %v for a block of shape %v", p.a.index, p.a.Name(), op, got, dst.Shape()))
	}
	copy(dst.Data(), got.Data())
}

func (p *adaptedPass) ForwardHidden(tensor.Windows) {}

func (p *adaptedPass) ForwardOut(w tensor.Windows) {
	if p.tiled(w) {
		y, c := p.a.Forward(p.x)
		p.cache = c
		p.result(p.out, y, "Forward")
	}
}

func (p *adaptedPass) BeginBackward(dy, dx, _ *tensor.Tensor, grads GradDst) {
	p.dy, p.dx, p.grads = dy, dx, grads
}

func (p *adaptedPass) BackwardHidden(tensor.Windows) {}

// BackwardIn runs the wrapped Backward, which can only add into Param.G: when
// the gradients are wanted elsewhere it starts from zero and Finish copies.
func (p *adaptedPass) BackwardIn(w tensor.Windows) {
	if p.tiled(w) {
		if p.grads != nil {
			zeroGrads(p.a.Params())
		}
		p.result(p.dx, p.a.Backward(p.cache, p.dy), "Backward")
	}
}

func (p *adaptedPass) Finish() {
	for i, g := range p.grads {
		copy(g.Data(), p.a.Params()[i].G.Data())
	}
}
