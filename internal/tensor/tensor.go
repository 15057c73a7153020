// Package tensor implements the dense CPU tensor math that stands in for
// the paper's CUDA/cuBLAS substrate.
//
// The MoE gating, ordering and expert computations in this repository are
// executed for real on these tensors (float64, row-major), so functional
// claims — four gating types, order/I-order inversion, capacity-factor
// token dropping — are validated on actual data rather than mocked.
//
// # GEMM contract
//
// The expert computation is three products — a@b (MatMulInto,
// MatMulRowsInto), aᵀ@b (MatMulT1Into, MatMulT1AddInto, MatMulT1HeadInto)
// and a@bᵀ (MatMulT2Into, MatMulT2RowsInto) — and one order defines all
// three (matmul.go): each element of dst is one chain of fused
// multiply-adds over the inner index,
//
//	s = fma(a_p, b_p, s) for p = 0, 1, …, k−1,
//
// each term rounded once, from +0 (from dst's value where aᵀ@b adds),
// no term skipped. The portable Go loop bodies spell every term as
// math.FMA, which is exact on every target — a hardware FMA where the CPU
// has one, a correctly rounded software one where it has not — so no
// compiler can fuse or split a term: their bits are the same on every
// GOARCH, CPU and GOAMD64 level by construction. (arm64 is cross-compiled
// and vetted here, not run, so for it this is the construction's promise,
// not a test's.)
//
// On amd64 CPUs with AVX2 and FMA the products run on register-tile
// micro-kernels in Go assembler (gemm_amd64.s), every term one
// VFMADD231PD: a 4×8 tile of dst for a@b and aᵀ@b, its pairs as 4×16 tiles
// of a 512-bit kernel where the CPU also has AVX-512F. a@bᵀ runs on the same
// kernels through a transpose — of b, or of a's rows and the result,
// whichever moves fewer elements — which fma's symmetry in its factors
// leaves bit-identical. aᵀ@b walks down the columns of both operands, and
// where their rows span a page and k is deep its tiles run over p in depth
// blocks, each block taking up the chains the one before stored in dst:
// the same chain over p ascending, bit for bit. The kernels are selected once, at package init, from
// CPUID leaves 1 and 7 and XGETBV — Kernel reports the outcome — and run
// full tiles only; whatever a tile grid leaves over (columns past the last
// full tile, the rows of an accumulating product past its last full tile
// row, products too narrow or too shallow for a tile) runs through the
// portable body restricted to that range, which is also the whole
// implementation on every other GOARCH, CPU or -tags purego build and the
// oracle the tests compare the kernels against.
//
// The row forms (MatMulRowsInto, MatMulT2RowsInto) take a window set per
// operand (Windows: Count windows of N rows, Stride apart) and run it as one
// call: each window's whole tiles in place, the rows past them, from every
// window, gathered into scratch as one product whose rows are scattered
// back; a product shorter than a tile runs on a tile padded with zero rows,
// of which only the real rows are stored. So thin windows — an expert
// chunk's few rows in each token-side shard — still fill the kernels' tiles.
//
// Guaranteed: on finite operands kernel and portable body produce the same
// bits, so a product does not depend on the build, the CPU or the GOARCH,
// on how its rows are cut into windows or window sets (chunked ≡
// monolithic), on which rows share a tile, or on the pool width — the tile
// grid is a function of the shapes alone and every element is accumulated
// by one goroutine in its order. With a NaN or Inf in an operand both
// produce the same set of non-finite elements (a zero times an Inf is a
// NaN, as IEEE 754 has it), but a NaN's payload and sign are not specified.
//
// # Elementary functions
//
// e^x, the logistic σ and the activations built on them (GeLU — the tanh
// approximation, computed as x·σ(2u) — SiLU, their gradients, Softmax,
// Sigmoid, Softplus) are repository functions (activation.go), not
// math.Exp and math.Tanh: amd64's math.Exp rounds differently on CPUs with
// and without FMA. exp, σ, GeLU, SiLU and the gradients are made of +, −,
// ×, ÷ and exact scaling with every product that feeds a sum rounded
// through a float64 conversion, so their bits are fixed on every GOARCH
// too; exp is within 2 ulp of the math package's. Softplus takes its logarithm from math.Log1p, plain Go that a
// compiler which fuses multiply-adds (arm64's) may round differently, and so
// may any other plain-Go arithmetic of the step: bits past the GEMMs and
// these functions — the step's parameter hashes among them — are promised
// for amd64, on any CPU, not across GOARCH. GeLURow and GeLUGradRow run the
// same operations eight lanes at a time where the CPU has AVX-512
// (activation_amd64.s), with the scalar bits.
//
// # Element-wise rows
//
// AddRow (dst += src) and AddScaledRow (dst += a·src) carry the step's
// element-wise float64 loops: the §5 slices' SGD update (AddScaledRow by
// −lr), the combine's slot sums, bias adds and gradients. Where the CPU has AVX-512 they run
// eight lanes at a time (row_amd64.s), each lane the scalar operations —
// the product rounded, then the sum or difference, never fused — so an
// element's bits do not depend on the lane width, the CPU or the build; the
// Go loops, the whole implementation elsewhere, round the product through a
// float64 conversion for the same reason. A NaN stays a NaN, with its
// payload unspecified.
//
// # Views and aliasing
//
// Reshape, View, Slice and Row return views: tensors (or slices) that share
// the receiver's backing array. Writing through a view writes the original.
// Views are how the MoE hot path avoids copies — each expert reads its
// (T, M) block of the dispatched (E, T, M) tensor and writes its block of
// the output through views. Two views of the same tensor may be used
// concurrently only if their element ranges are disjoint.
//
// # Buffer pool ownership
//
// Get/GetUninit/Put (pool.go) recycle backing arrays through one free-list
// that every goroutine shares and the collector never empties: buffers stay
// with it, as many as were ever out at once plus ReserveScratch's reserve.
// The single-owner rule: only the code that obtained a tensor from Get may
// Put it, at most once, and only when no view of it is still live — after
// Put, the backing array may be handed to an unrelated Get. Tensors from
// New/FromData and all views are outside the pool; Put ignores them, so
// defensively Put-ing a value of unknown origin is safe.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major tensor of float64 values.
type Tensor struct {
	shape []int
	data  []float64

	// shapeBuf backs shape for ranks ≤ 4, so reshaping a pooled tensor
	// allocates nothing.
	shapeBuf [4]int
	// poolable marks tensors owned by the Get/Put free-list (pool.go).
	// Views and plain New/FromData tensors are never poolable.
	poolable bool
}

// setShape installs shape without allocating when the rank fits shapeBuf.
func (t *Tensor) setShape(shape []int) {
	if len(shape) <= len(t.shapeBuf) {
		t.shape = t.shapeBuf[:len(shape)]
	} else {
		t.shape = make([]int, len(shape))
	}
	copy(t.shape, shape)
}

// New allocates a zero-filled tensor with the given shape. Every dimension
// must be non-negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromData wraps data (not copied) in a tensor of the given shape. The
// length of data must equal the shape's element count.
func FromData(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutations are visible to the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view sharing storage with t but with a new shape of the
// same total size. A single dimension may be -1, meaning "infer".
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := make([]int, len(shape))
	copy(s, shape)
	infer := -1
	n := 1
	for i, d := range s {
		if d == -1 {
			if infer != -1 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		s[infer] = len(t.data) / n
		n *= s[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{shape: s, data: t.data}
}

// View returns a zero-copy view of the given shape over t's storage
// starting at flat offset off. The view shares t's backing array: writes
// through either are visible to both, and the view must not outlive a Put
// of t.
func (t *Tensor) View(off int, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in View shape %v", shape))
		}
		n *= d
	}
	if off < 0 || off+n > len(t.data) {
		panic(fmt.Sprintf("tensor: View [%d, %d) out of range for %d elements", off, off+n, len(t.data)))
	}
	v := &Tensor{data: t.data[off : off+n : off+n]}
	v.setShape(shape)
	return v
}

// Slice returns a zero-copy view of rows [lo, hi) along the leading
// dimension, with the remaining dimensions unchanged. For an (E, T, M)
// tensor, Slice(e, e+1).Reshape(T, M) is expert e's block without a copy.
func (t *Tensor) Slice(lo, hi int) *Tensor {
	if t.Rank() == 0 {
		panic("tensor: Slice requires rank ≥ 1")
	}
	if lo < 0 || hi < lo || hi > t.shape[0] {
		panic(fmt.Sprintf("tensor: Slice [%d, %d) out of range for shape %v", lo, hi, t.shape))
	}
	stride := 1
	for _, d := range t.shape[1:] {
		stride *= d
	}
	shape := append([]int{hi - lo}, t.shape[1:]...)
	return t.View(lo*stride, shape...)
}

// Row returns a view of row i of a 2-D tensor as a slice.
func (t *Tensor) Row(i int) []float64 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	cols := t.shape[1]
	return t.data[i*cols : (i+1)*cols]
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum elementwise absolute difference between
// t and o, which must share a shape, or NaN when any difference is NaN. It
// is a tolerance measure: +0 and −0 differ by 0, so a check that two
// tensors are bit-identical uses SameBits.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	if !t.SameShape(o) {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	m := 0.0
	for i := range t.data {
		d := math.Abs(t.data[i] - o.data[i])
		if d != d {
			return d
		}
		m = max(m, d)
	}
	return m
}

// SameBits reports whether t and o share a shape and every element's bits
// (math.Float64bits): a NaN equals only a NaN of the same payload, and +0
// differs from −0. It is the check behind every bit-identity claim.
func (t *Tensor) SameBits(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		if math.Float64bits(v) != math.Float64bits(o.data[i]) {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }
