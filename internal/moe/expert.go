package moe

import "repro/internal/tensor"

// Expert is the compute sub-module of §3.1 and the one execution contract
// everything that runs an expert drives — the one plan builder, under every
// parallel strategy and on a layer's one-rank World, which also runs its
// degraded passes (§3's unified Expert abstraction, §4.1's chunks, §4's
// expert sharding). Implementations own their parameters and gradient accumulators. A pass over one (n, M) block
// is two GEMM stages around a hidden exchange buffer, decomposed so that no
// floating-point reduction is ever re-associated, which is what makes a pass
// bit-identical however it is tiled and sharded:
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
//
// Concurrency contract: a World runs *different* expert instances
// concurrently — on its ranks, and at one rank over the kernel pool — never
// the same instance twice at once. An
// implementation therefore must not share mutable state — scratch buffers,
// RNGs, or Param tensors (e.g. tied weights) — with another expert instance
// in the same layer unless it synchronizes access. NewWorld refuses the same
// instance registered at several indices, which the layer's own one-rank
// World runs one expert after another in index order; nothing can see state
// shared between distinct instances.
type Expert interface {
	// Params exposes the trainable parameters. The planner prices their
	// gradient bytes (what Gradient-AllReduce must move) from their sizes.
	// The set is fixed for the expert's life, but not the tensors: a
	// training step re-points each Param.W and Param.G at its span of the
	// stack's flat parameter and gradient buffers, so a pass reads them
	// through the Param, never from a tensor it kept.
	Params() []*Param
	// FwdMACs returns the forward multiply-accumulate count for n tokens,
	// which drives the performance model (backward is modelled as 2×,
	// §4.4).
	FwdMACs(n int) float64
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
	// Begin binds one pass of one holder of the column range b.Cl, b.Ch to
	// its memory b, once: a World begins its passes when it cuts a
	// workspace, and every forward over that workspace re-arms them
	// (ExpertPass.BeginForward). One expert instance is driven by g members
	// at once under expert sharding, each through its own pass, so
	// everything mutable is the pass's.
	Begin(b PassBufs) ExpertPass
}

// PassBufs is the memory of one pass, all of it the caller's — workspace
// slots under a World, so an aborted pass leaves nothing to free — and
// bound to it for the pass's life: a World's pass over a warm workspace
// runs in the same buffers forward after forward. A pass reads hidden
// columns outside its range only after the caller filled them with the
// other members' columns.
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
// apart, less the set's last Clip rows — one window is Count = 1) and
// should run each of its GEMMs as one product over the whole set, the
// row-form entry points of its PassBufs.Pool (MatMulRowsInto,
// MatMulT2RowsInto): a World's chunk is a few rows in each token-side
// rank's shard of a block, and one product per window would leave most
// windows under a kernel tile's height, on the portable loops, and walk the
// weights once per window. A World cuts every set at the expert's fill, one
// past its last occupied slot (tensor.Windows.Cut): the rows past it hold
// no token and no stage computes or reads them.
// Calls on one pass never run concurrently. Forward: BeginForward, then
// ForwardHidden calls tile the filled rows before a row's ForwardOut.
// Backward: BeginBackward,
// then BackwardHidden tiles them before a row's BackwardIn; Finish runs
// once, on one pass per expert, over fully assembled buffers. Stages may draw
// transient buffers from tensor.Get and Put them before returning; the
// free-list is one for every executor worker, so a warm stage finds the
// buffers an earlier one Put, whichever worker runs it.
type ExpertPass interface {
	// BeginForward arms the pass for one forward, the first included, and
	// allocates nothing: it re-reads what the pass takes from the live
	// parameters — each Param.W, which a training step re-points, and any
	// copy of its columns the pass multiplies by.
	BeginForward()
	// ForwardHidden computes Hidden columns [Cl, Ch) of the rows w.
	ForwardHidden(w tensor.Windows)
	// ForwardOut computes the rows w of Out from full-width Hidden rows.
	ForwardOut(w tensor.Windows)
	// BeginBackward binds the backward's memory: the full (n, M) output
	// gradient dy and input gradient dx and the (BwdBands·n, HiddenWidth)
	// exchange buffer, and says how Finish puts the parameter gradients
	// into each Param.G: added to it, as a Backward outside a training step
	// accumulates, or with overwrite written over whatever it held, as a
	// training step does — its Param.G is then the expert's span of the
	// stack's one gradient buffer, where the §5 update reads it.
	BeginBackward(dy, dx, hidden *tensor.Tensor, overwrite bool)
	// BackwardHidden computes the backward exchange buffer's columns
	// [Cl, Ch) of the rows w from dy — stage 2's adjoint.
	BackwardHidden(w tensor.Windows)
	// BackwardIn computes the rows w of dx from full-width exchange rows.
	BackwardIn(w tensor.Windows)
	// Finish reduces the parameter gradients of the block's first rows rows
	// into each Param.G as BeginBackward says: the same GEMMs and column
	// sums in the same order however the pass was tiled. The rows past them
	// hold no token — no stage computed them — and it must not read them.
	Finish(rows int)
}

// weightGrad puts the weight gradient over the first rows rows, aᵀ·b, into
// p.G: added, or with overwrite written over it.
func weightGrad(pool *tensor.Pool, p *Param, a, b *tensor.Tensor, rows int, overwrite bool) {
	pool.MatMulT1HeadInto(p.G, a, b, rows, !overwrite)
}

// biasGrad puts the bias gradient, the column sums of m's first rows rows,
// into p.G: added, or with overwrite written over it. It reads m's rows raw:
// the variadic At/Set accessors allocate their index slice.
func biasGrad(p *Param, m *tensor.Tensor, rows int, overwrite bool) {
	if overwrite {
		p.G.Zero()
	}
	ad := p.G.Data()
	for i := range rows {
		tensor.AddRow(ad, m.Row(i))
	}
}
