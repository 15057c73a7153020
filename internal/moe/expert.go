package moe

import "repro/internal/tensor"

// Expert is the compute sub-module of §3.1 and the one execution contract
// everything that runs an expert drives — the sequential layer, the
// degraded path and every parallel strategy (§3's unified Expert
// abstraction, §4.1's chunks, §4's expert sharding). Implementations own
// their parameters and gradient accumulators. A pass over one (n, M) block
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
// Concurrency contract: MOELayer runs *different* expert instances
// concurrently (never the same instance twice at once). An implementation
// therefore must not share mutable state — scratch buffers, RNGs, or Param
// tensors (e.g. tied weights) — with another expert instance in the same
// layer unless it synchronizes access. The layer detects the same instance
// registered at several indices and falls back to sequential execution for
// that case, but it cannot see state shared between distinct instances.
type Expert interface {
	Name() string
	// Params exposes the trainable parameters. The planner prices their
	// gradient bytes (what Gradient-AllReduce must move) from their sizes.
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

// GradDst is where a pass puts one expert's parameter gradients. Nil adds
// them to each Param.G, as the sequential layer's Backward does. Otherwise
// GradDst[i] is overwritten with the gradient of Params()[i] — during a
// training step it is the expert's owned span of its owner rank's resident
// buffer, where the §5 gather reads it: nothing is zeroed or copied.
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
		tensor.AddRow(ad, m.Row(i))
	}
}
