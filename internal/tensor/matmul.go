package tensor

import (
	"fmt"
	"iter"
	"sync"
)

// The GEMM layer (contract: the package comment). Three products — a@b,
// aᵀ@b, a@bᵀ — each defined by the order in which one output element
// accumulates its terms, and each implemented twice over that definition:
//
//   - a portable loop body (matmulRows, matmulT1Rows, matmulT2Rows below)
//     restricted to a row and column range of dst: the whole implementation
//     where there is no micro-kernel, the fringe where there is one, and the
//     oracle the tests compare the kernels against;
//   - an AVX2 register-tile micro-kernel (gemm_amd64.s) that runs full tiles
//     in the same order with unfused VMULPD+VADDPD.
//
// A driver per product (matmulRange, matmulT1Range, matmulT2Range) walks the
// tile grid of a row range that starts on a tile-row boundary. Pools split a
// product between full tile rows, the last shard taking the rows past the
// last one, so the grid — which element a tile computes and which the
// portable body — depends on the shapes alone, never on the pool width, and
// every dst element is accumulated by exactly one goroutine.
//
// The row forms of a@b and a@bᵀ (MatMulRowsInto, MatMulT2RowsInto) take a
// window set per operand — Count windows of N rows, Stride rows apart — and
// run it as one call (windowed): in place when the set is one run of rows;
// otherwise each window's whole tiles in place, and the rows past them, from
// every window, as one product on rows gathered into scratch, its result
// scattered back. This is what keeps the kernels busy when a caller's
// windows are thinner than a tile: an expert chunk is a few rows in each of
// R token-side shards, and the set fills whole tiles, where one product per
// window leaves most windows to the portable body and walks the weights
// once per window. A product still shorter than a tile runs on a tile
// padded with zero rows in scratch, and only its real rows are stored.
// Neither changes a bit: each element is one accumulation over one row of
// a, whatever rows share its tile.

// Tile geometry of the micro-kernels, which is also the sharding unit of
// the drivers on every build: a pool splits a product between tile rows.
const (
	tileRows = 4 // a@b and aᵀ@b: a 4×8 tile of dst
	tileCols = 8
	t2Rows   = 8 // a@bᵀ: an 8×4 tile of dst
	t2Cols   = 4
)

// matmulParallelThreshold is the multiply-accumulate count (m·k·n) at and
// above which the GEMM drivers shard tile rows across their pool. Below it
// the fork-join costs more than the second worker saves: on the 2-core
// reference box a product of 1<<18 MACs (the constant before the AVX2
// kernels) takes ~20 µs on one worker and ~25 µs on a pool of two, 1<<20
// takes ~89 µs against ~105 µs, 1<<21 ~178 µs against ~180–190 µs and
// 1<<22 ~400 µs against ~340 µs — the threshold is a time, and the kernels
// made a MAC four times cheaper. BenchmarkMatMulThreshold is the measurement.
const matmulParallelThreshold = 1 << 21

// Kernel names the GEMM implementation this process selected at init:
// "avx2" for the assembly micro-kernels, "portable" for the Go loop bodies
// alone (no AVX2, another GOARCH, or a -tags purego build).
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// Windows is a window set over the rows of a 2-D tensor: Count windows of N
// rows each, the first starting at row Lo and each next one Stride rows
// after the start of the one before. The row-form GEMM entry points run a
// set as one product; a single window is Count = 1 (Window).
type Windows struct{ Lo, N, Stride, Count int }

// Window is the one-window set of rows [lo, lo+n).
func Window(lo, n int) Windows { return Windows{Lo: lo, N: n, Stride: n, Count: 1} }

// Len is the number of rows in the set.
func (w Windows) Len() int { return w.N * w.Count }

// Packed is the set of w's shape packed from row 0: the rows of a buffer
// that holds w's rows in order, Len of them.
func (w Windows) Packed() Windows { return Windows{N: w.N, Stride: w.N, Count: w.Count} }

// All yields every row of the set in order as (i, t): its position i in the
// set, which is its row in a product's gathered operand, and its row t.
func (w Windows) All() iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for c := 0; c < w.Count; c++ {
			lo := w.Lo + c*w.Stride
			for t := lo; t < lo+w.N; t++ {
				if !yield(c*w.N+t-lo, t) {
					return
				}
			}
		}
	}
}

// contiguous reports whether the set's rows are one run.
func (w Windows) contiguous() bool { return w.Count == 1 || w.Stride == w.N }

// within reports whether the set is well formed — windows that do not
// overlap — and ends by row rows.
func (w Windows) within(rows int) bool {
	if w.Lo < 0 || w.N < 0 || w.Count < 0 || w.Count > 1 && w.Stride < w.N {
		return false
	}
	return w.Count == 0 || w.Lo+(w.Count-1)*w.Stride+w.N <= rows
}

// serialGEMM reports whether a product of macs multiply-accumulates over
// rows rows of dst runs on the caller alone. Entry points test it before
// building the sharding closure, so the serial path allocates nothing.
func (p *Pool) serialGEMM(rows, tile, macs int) bool {
	return macs < matmulParallelThreshold || rows < 2*tile || p.Workers() == 1
}

// shardEnd is the last row of a shard that ends at full tile row hi of nt:
// the last shard also takes the rows past the last full tile row, so every
// shard starts on a tile-row boundary and holds at least one full tile row.
func shardEnd(hi, nt, tile, rows int) int {
	if hi == nt {
		return rows
	}
	return hi * tile
}

// MatMul returns a @ b for 2-D tensors with shapes (m,k) and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	out := New(mmShape(a, b, "MatMul"), b.shape[1])
	defaultPool.matmulInto(out.data, a.data, b.data, a.shape[0], a.shape[1], b.shape[1])
	return out
}

// MatMulInto computes dst = a @ b, overwriting dst, which must be (m,n).
// With a pooled dst (GetUninit) this is the allocation-free GEMM the hot
// path uses. Tile rows shard over the default pool; see Pool.MatMulInto for
// the scoped variant.
func MatMulInto(dst, a, b *Tensor) { defaultPool.MatMulInto(dst, a, b) }

// MatMulInto computes dst = a @ b with the sharding bound to p's worker
// budget instead of the default pool — the GEMM entry point for code
// handed a scoped pool, such as a World's expert stages. A nil receiver uses the default
// pool. Results are bit-identical at any width.
func (p *Pool) MatMulInto(dst, a, b *Tensor) {
	m := mmShape(a, b, "MatMulInto")
	checkDst(dst, m, b.shape[1], "MatMulInto")
	p.MatMulRowsInto(dst, Window(0, m), a, Window(0, m), b)
}

// MatMulRowsInto computes the rows dw of dst as the rows aw of a times b,
// as one product: the window-set form of MatMulInto, for callers that walk
// a block window by window and would otherwise slice a view per operand per
// window — and run one thin product per window. dw and aw have the same N
// and Count; dst is (·, n) for a (·, k) and b (k, n).
func (p *Pool) MatMulRowsInto(dst *Tensor, dw Windows, a *Tensor, aw Windows, b *Tensor) {
	mmShape(a, b, "MatMulRowsInto")
	k, n := a.shape[1], b.shape[1]
	checkWindows(dst, dw, a, aw, n, "MatMulRowsInto")
	p.self().windowed((*Pool).matmulInto, tileRows, tileCols, dst.data, dw, a.data, aw, b.data, k, n)
}

// mmShape validates a 2-D pair with matching inner dimension and returns m.
func mmShape(a, b *Tensor, op string) int {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: " + op + " requires 2-D tensors")
	}
	if a.shape[1] != b.shape[0] {
		panic("tensor: " + op + " inner dimension mismatch")
	}
	return a.shape[0]
}

func checkDst(dst *Tensor, m, n int, op string) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: " + op + " destination shape mismatch")
	}
}

// checkWindows validates a window-set product on behalf of op: dst is 2-D
// of width n, the two sets have the same shape, and each is well formed and
// inside its tensor.
func checkWindows(dst *Tensor, dw Windows, a *Tensor, aw Windows, n int, op string) {
	if dst.Rank() != 2 || dst.shape[1] != n {
		panic("tensor: " + op + " destination shape mismatch")
	}
	if dw.N != aw.N || dw.Count != aw.Count || !dw.within(dst.shape[0]) || !aw.within(a.shape[0]) {
		panic(fmt.Sprintf("tensor: %s rows %+v of %v from rows %+v of %v out of range", op, dw, dst.shape, aw, a.shape))
	}
}

// windowed runs one product over a window set: the rows aw of a (width k)
// times b into the rows dw of dst (width n), through gemm — matmulInto or
// matmulT2Into, whose tile is tile×cols — on contiguous operands. Sets that
// are one run of rows each are the operands themselves. Otherwise each
// window's whole tiles — all of its rows where no kernel would run — run in
// place, and the rows past them, from every window, run as one product in a
// scratch buffer: a's rows gathered, the result scattered back to dw's
// rows, on at least a tile of rows, padded with zero rows whose results are
// never stored. Every element is one accumulation over one row of a, so
// where a row is computed changes no bit.
func (p *Pool) windowed(gemm func(p *Pool, dst, a, b []float64, m, k, n int), tile, cols int,
	dst []float64, dw Windows, a []float64, aw Windows, b []float64, k, n int) {
	m := dw.Len()
	if m == 0 {
		return
	}
	kernel := useAVX2 && k >= 4 && n >= cols
	if dw.contiguous() && aw.contiguous() && (m >= tile || !kernel) {
		gemm(p, dst[dw.Lo*n:(dw.Lo+m)*n], a[aw.Lo*k:(aw.Lo+m)*k], b, m, k, n)
		return
	}
	full := dw.N
	if kernel {
		full = dw.N / tile * tile
	}
	if full > 0 {
		for c := 0; c < dw.Count; c++ {
			dlo, alo := dw.Lo+c*dw.Stride, aw.Lo+c*aw.Stride
			gemm(p, dst[dlo*n:(dlo+full)*n], a[alo*k:(alo+full)*k], b, full, k, n)
		}
		dw.Lo, dw.N, aw.Lo, aw.N = dw.Lo+full, dw.N-full, aw.Lo+full, aw.N-full
		if m = dw.Len(); m == 0 {
			return
		}
	}
	rows := max(m, tile)
	s := takeScratch(rows * (n + k))
	dd, ad := s[:rows*n], s[rows*n:]
	gather(ad, a, aw, k)
	clear(ad[m*k:])
	gemm(p, dd, ad, b, rows, k, n)
	scatter(dst, dw, dd, n)
	dropScratch(s)
}

// scratch is windowed's working memory: a free-list of its own rather than
// Get/Put, because the collector empties a sync.Pool and every refill is an
// allocation on some later step. These buffers stay: as many as products
// ever needed one at once, each at the largest size it was asked for.
var scratch struct {
	sync.Mutex
	free [][]float64
}

// takeScratch returns n elements of scratch, whatever they held.
func takeScratch(n int) []float64 {
	var s []float64
	scratch.Lock()
	if k := len(scratch.free); k > 0 {
		s, scratch.free = scratch.free[k-1], scratch.free[:k-1]
	}
	scratch.Unlock()
	if cap(s) < n {
		s = make([]float64, n)
	}
	return s[:n]
}

// dropScratch returns a takeScratch buffer to the free-list.
func dropScratch(s []float64) {
	scratch.Lock()
	scratch.free = append(scratch.free, s)
	scratch.Unlock()
}

// gather copies the rows of set w of src (width k) to the head of dst, in
// set order.
func gather(dst, src []float64, w Windows, k int) {
	for c := 0; c < w.Count; c++ {
		lo := (w.Lo + c*w.Stride) * k
		copy(dst[c*w.N*k:], src[lo:lo+w.N*k])
	}
}

// scatter copies the head rows of src, in set order, to the rows of set w of
// dst (width n) — the set's rows only.
func scatter(dst []float64, w Windows, src []float64, n int) {
	for c := 0; c < w.Count; c++ {
		lo := (w.Lo + c*w.Stride) * n
		copy(dst[lo:lo+w.N*n], src[c*w.N*n:])
	}
}

// matmulInto computes dst = A @ B where A is (m,k), B is (k,n), all
// row-major, sharding tile rows of dst over the pool.
func (p *Pool) matmulInto(dst, a, b []float64, m, k, n int) {
	if p.serialGEMM(m, tileRows, m*k*n) {
		matmulRange(dst, a, b, 0, m, k, n)
		return
	}
	nt := m / tileRows
	p.ParallelRange(nt, func(lo, hi int) {
		matmulRange(dst, a, b, lo*tileRows, shardEnd(hi, nt, tileRows, m), k, n)
	})
}

// matmulRange computes rows [lo, hi) of dst = a @ b in matmulRows' order.
// With at least one full tile row the 4×8 tiles go through the grouped
// kernel (its k mod 4 tail through the plain one, which continues from what
// the grouped kernel stored) and the last tile row slides back over rows
// already written rather than leave a row fringe: the product overwrites,
// so computing a row twice stores the same bits twice. Columns past the
// last full tile column, and every smaller range, are matmulRows'.
func matmulRange(dst, a, b []float64, lo, hi, k, n int) {
	k4 := k &^ 3
	if !useAVX2 || k4 == 0 || n < tileCols || hi-lo < tileRows {
		matmulRows(dst, a, b, lo, hi, 0, n, k, n)
		return
	}
	j8 := n &^ (tileCols - 1)
	for i := lo; i < hi; i += tileRows {
		r := min(i, hi-tileRows)
		gemmGrouped(&dst[r*n], n, &a[r*k], k, &b[0], n, k4/4, j8/tileCols)
		if k4 < k {
			gemmPlain(&dst[r*n], n, &a[r*k+k4], k, 1, &b[k4*n], n, k-k4, j8/tileCols)
		}
	}
	matmulRows(dst, a, b, lo, hi, j8, n, k, n)
}

// matmulRows is the portable a @ b body over rows [lo, hi) × columns
// [jlo, jhi) of dst, and the definition of the grouped order: the k-loop
// runs four at a time, dst[i,j] += ((a0·b0 + a1·b1) + a2·b2) + a3·b3 with a
// group skipped when its four a are all zero, then one p at a time over the
// tail with single zeros skipped — from +0, p ascending.
func matmulRows(dst, a, b []float64, lo, hi, jlo, jhi, k, n int) {
	if jlo >= jhi {
		return
	}
	for i := lo; i < hi; i++ {
		matmulRow(dst[i*n+jlo:i*n+jhi], a[i*k:(i+1)*k], b, jlo, n)
	}
}

// matmulRow is one row of matmulRows: di = ai @ b[:, jlo:jlo+len(di)] for b
// of width n. (A function of its own so the inner loops get the registers.)
func matmulRow(di, ai, b []float64, jlo, n int) {
	clear(di)
	w := len(di)
	p := 0
	for ; p+4 <= len(ai); p += 4 {
		a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := b[p*n+jlo:][:w]
		b1 := b[(p+1)*n+jlo:][:w]
		b2 := b[(p+2)*n+jlo:][:w]
		b3 := b[(p+3)*n+jlo:][:w]
		for j := range di {
			di[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; p < len(ai); p++ {
		av := ai[p]
		if av == 0 {
			continue
		}
		for j, bv := range b[p*n+jlo:][:w] {
			di[j] += av * bv
		}
	}
}

// MatMulT1 returns aᵀ @ b where a is (k,m) and b is (k,n); the result is
// (m,n). This is the shape needed for weight gradients (xᵀ @ dy) without
// materializing the transpose.
func MatMulT1(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT1 requires 2-D tensors")
	}
	out := New(a.shape[1], b.shape[1])
	k, m, n := t1Shape(out, a, b, "MatMulT1")
	defaultPool.matmulT1Add(out.data, a.data, b.data, k, m, n)
	return out
}

// MatMulT1Into computes dst = aᵀ @ b, overwriting dst, which must be (m,n)
// for a (k,m) and b (k,n), on the default pool.
func MatMulT1Into(dst, a, b *Tensor) { defaultPool.MatMulT1Into(dst, a, b) }

// MatMulT1AddInto computes dst += aᵀ @ b on the default pool: the terms of
// MatMulT1Into added, in the same order, to what dst already holds. A
// row-blocked product may therefore be accumulated block by block —
// MatMulT1Into on the first block of rows of a and b, MatMulT1AddInto on the
// rest — with the bits of the one-call product.
func MatMulT1AddInto(dst, a, b *Tensor) { defaultPool.MatMulT1AddInto(dst, a, b) }

// MatMulT1Into computes dst = aᵀ @ b with the pool convention of
// Pool.MatMulInto.
func (p *Pool) MatMulT1Into(dst, a, b *Tensor) {
	k, m, n := t1Shape(dst, a, b, "MatMulT1Into")
	clear(dst.data)
	p.self().matmulT1Add(dst.data, a.data, b.data, k, m, n)
}

// MatMulT1AddInto computes dst += aᵀ @ b with the pool convention of
// Pool.MatMulInto.
func (p *Pool) MatMulT1AddInto(dst, a, b *Tensor) {
	k, m, n := t1Shape(dst, a, b, "MatMulT1AddInto")
	p.self().matmulT1Add(dst.data, a.data, b.data, k, m, n)
}

// t1Shape validates dst (m,n) += aᵀ @ b for a (k,m) and b (k,n) on behalf
// of entry point op and returns k, m, n.
func t1Shape(dst, a, b *Tensor, op string) (k, m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors, have %v from %v and %v", op, dst.shape, a.shape, b.shape))
	}
	if a.shape[0] != b.shape[0] || dst.shape[0] != a.shape[1] || dst.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: %s shape mismatch: %v from the transpose of %v times %v", op, dst.shape, a.shape, b.shape))
	}
	return a.shape[0], a.shape[1], b.shape[1]
}

// matmulT1Add is dst += aᵀ @ b for a (k,m), b (k,n): dst[i,j] is a sum over
// p ascending whichever worker owns row i, so tile rows of dst (columns of
// a) shard over the pool like the other two products.
func (p *Pool) matmulT1Add(dst, a, b []float64, k, m, n int) {
	if p.serialGEMM(m, tileRows, m*k*n) {
		matmulT1Range(dst, a, b, 0, m, k, m, n)
		return
	}
	nt := m / tileRows
	p.ParallelRange(nt, func(lo, hi int) {
		matmulT1Range(dst, a, b, lo*tileRows, shardEnd(hi, nt, tileRows, m), k, m, n)
	})
}

// matmulT1Range adds rows [lo, hi) of aᵀ @ b into dst in matmulT1Rows'
// order: full 4×8 tiles through the plain kernel reading a at stride (1, m),
// the rest through matmulT1Rows. The product accumulates, so no tile may
// cover a row twice and the rows past the last full tile row stay a fringe.
func matmulT1Range(dst, a, b []float64, lo, hi, k, m, n int) {
	if !useAVX2 || k == 0 || n < tileCols || hi-lo < tileRows {
		matmulT1Rows(dst, a, b, lo, hi, 0, n, k, m, n)
		return
	}
	i4, j8 := lo, n&^(tileCols-1)
	for ; i4+tileRows <= hi; i4 += tileRows {
		gemmPlain(&dst[i4*n], n, &a[i4], 1, m, &b[0], n, k, j8/tileCols)
	}
	matmulT1Rows(dst, a, b, lo, i4, j8, n, k, m, n)
	matmulT1Rows(dst, a, b, i4, hi, 0, n, k, m, n)
}

// matmulT1Rows is the portable dst += aᵀ @ b body over rows [lo, hi) ×
// columns [jlo, jhi) of dst, and the definition of the plain order:
// dst[i,j] += a[p,i]·b[p,j] one p at a time, p ascending, a term skipped
// when its a is zero (so 0·NaN never reaches dst and a −0 in dst survives).
func matmulT1Rows(dst, a, b []float64, lo, hi, jlo, jhi, k, m, n int) {
	if lo >= hi || jlo >= jhi {
		return
	}
	w := jhi - jlo
	for p := 0; p < k; p++ {
		bp := b[p*n+jlo:][:w]
		for i, av := range a[p*m+lo : p*m+hi] {
			if av == 0 {
				continue
			}
			di := dst[(lo+i)*n+jlo:][:w]
			for j, bv := range bp {
				di[j] += av * bv
			}
		}
	}
}

// MatMulT2 returns a @ bᵀ where a is (m,k) and b is (n,k); the result is
// (m,n). This is the shape needed for input gradients (dy @ Wᵀ) without
// materializing the transpose.
func MatMulT2(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2 requires 2-D tensors")
	}
	out := New(a.shape[0], b.shape[0])
	MatMulT2Into(out, a, b)
	return out
}

// MatMulT2Into computes dst = a @ bᵀ, overwriting dst, which must be (m,n)
// for a (m,k) and b (n,k). Tile rows shard over the default pool; see
// Pool.MatMulT2Into for the scoped variant.
func MatMulT2Into(dst, a, b *Tensor) { defaultPool.MatMulT2Into(dst, a, b) }

// MatMulT2Into computes dst = a @ bᵀ with the sharding bound to p's worker
// budget (nil = default pool). Both operands stream row-major, so every
// output element is a plain dot product of two rows.
func (p *Pool) MatMulT2Into(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2Into requires 2-D tensors")
	}
	m := a.shape[0]
	checkDst(dst, m, b.shape[0], "MatMulT2Into")
	p.MatMulT2RowsInto(dst, Window(0, m), a, Window(0, m), b, 0, b.shape[0])
}

// MatMulT2RowsInto computes the rows dw of dst as the rows aw of a times the
// transpose of rows [blo, bhi) of b, as one product: the window-set form of
// MatMulT2Into (see MatMulRowsInto). dst is (·, bhi−blo) for a (·, k) and
// b (·, k).
func (p *Pool) MatMulT2RowsInto(dst *Tensor, dw Windows, a *Tensor, aw Windows, b *Tensor, blo, bhi int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2RowsInto requires 2-D tensors")
	}
	k, n := a.shape[1], bhi-blo
	if k != b.shape[1] {
		panic("tensor: MatMulT2RowsInto inner dimension mismatch")
	}
	if blo < 0 || n < 0 || bhi > b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulT2RowsInto rows [%d,%d) of b %v out of range", blo, bhi, b.shape))
	}
	checkWindows(dst, dw, a, aw, n, "MatMulT2RowsInto")
	p.self().windowed((*Pool).matmulT2Into, t2Rows, t2Cols, dst.data, dw, a.data, aw, b.data[blo*k:bhi*k], k, n)
}

// matmulT2Into computes dst = a @ bᵀ where a is (m,k) and b is (n,k), all
// row-major, sharding tile rows of dst over the pool.
func (p *Pool) matmulT2Into(dst, a, b []float64, m, k, n int) {
	if p.serialGEMM(m, t2Rows, m*k*n) {
		matmulT2Range(dst, a, b, 0, m, k, n)
		return
	}
	nt := m / t2Rows
	p.ParallelRange(nt, func(lo, hi int) {
		matmulT2Range(dst, a, b, lo*t2Rows, shardEnd(hi, nt, t2Rows, m), k, n)
	})
}

// matmulT2Range computes rows [lo, hi) of dst = a @ bᵀ in matmulT2Rows'
// order. With at least one full tile row the 8×4 tiles go through the
// transposed kernel over the leading multiple of four p, the last tile row
// sliding back like matmulRange's, and matmulT2Rows continues the tiles'
// dots over the k mod 4 tail. Columns past the last full tile column, and
// every smaller range, are matmulT2Rows' from the start.
func matmulT2Range(dst, a, b []float64, lo, hi, k, n int) {
	k4 := k &^ 3
	if !useAVX2 || k4 == 0 || n < t2Cols || hi-lo < t2Rows {
		matmulT2Rows(dst, a, b, lo, hi, 0, n, 0, k, n)
		return
	}
	j4 := n &^ (t2Cols - 1)
	for i := lo; i < hi; i += t2Rows {
		r := min(i, hi-t2Rows)
		gemmTransposed(&dst[r*n], n, &a[r*k], k, &b[0], k, k4/4, j4/t2Cols)
	}
	if k4 < k {
		matmulT2Rows(dst, a, b, lo, hi, 0, j4, k4, k, n)
	}
	matmulT2Rows(dst, a, b, lo, hi, j4, n, 0, k, n)
}

// matmulT2Rows is the portable a @ bᵀ body over rows [lo, hi) × columns
// [jlo, jhi) of dst, and the definition of the transposed order: each
// element is one dot product, s += a[i,p]·b[j,p] with p ascending and no
// term skipped. The dot runs over p in [plo, k), from +0 when plo is 0 and
// from what dst holds otherwise. The j-loop is blocked four-wide so four
// dots share each streamed load of a's row; the blocking changes no bit.
func matmulT2Rows(dst, a, b []float64, lo, hi, jlo, jhi, plo, k, n int) {
	if jlo >= jhi {
		return
	}
	for i := lo; i < hi; i++ {
		matmulT2Row(dst[i*n+jlo:i*n+jhi], a[i*k+plo:(i+1)*k], b[jlo*k:jhi*k], plo, k)
	}
}

// matmulT2Row is one row of matmulT2Rows: di[j] gains ai · b[j, plo:] for b
// of width k.
func matmulT2Row(di, ai, b []float64, plo, k int) {
	j := 0
	for ; j+4 <= len(di); j += 4 {
		var s0, s1, s2, s3 float64
		if plo > 0 {
			s0, s1, s2, s3 = di[j], di[j+1], di[j+2], di[j+3]
		}
		di[j], di[j+1], di[j+2], di[j+3] = dot4(ai, b[j*k+plo:], b[(j+1)*k+plo:], b[(j+2)*k+plo:], b[(j+3)*k+plo:], s0, s1, s2, s3)
	}
	for ; j < len(di); j++ {
		s := 0.0
		if plo > 0 {
			s = di[j]
		}
		for p, bv := range b[j*k+plo:][:len(ai)] {
			s += ai[p] * bv
		}
		di[j] = s
	}
}

// dot4 continues four dot products that share ai. Kept out of line: inlined
// into the row loop, the compiler spills p on every iteration.
//
//go:noinline
func dot4(ai, b0, b1, b2, b3 []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	b0, b1, b2, b3 = b0[:len(ai)], b1[:len(ai)], b2[:len(ai)], b3[:len(ai)]
	for p, av := range ai {
		s0 += av * b0[p]
		s1 += av * b1[p]
		s2 += av * b2[p]
		s3 += av * b3[p]
	}
	return s0, s1, s2, s3
}

// Transpose2D returns the transpose of a 2-D tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose2D requires a 2-D tensor")
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// BatchedMatMul multiplies two 3-D tensors batch-wise: (b,m,k)@(b,k,n) →
// (b,m,n). Batches shard over the shared worker pool when the total work
// clears the parallel threshold; small batched products run sequentially
// instead of paying one goroutine per batch.
func BatchedMatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 3 || b.Rank() != 3 {
		panic("tensor: BatchedMatMul requires 3-D tensors")
	}
	bs, m, k := a.shape[0], a.shape[1], a.shape[2]
	bs2, k2, n := b.shape[0], b.shape[1], b.shape[2]
	if bs != bs2 || k != k2 {
		panic("tensor: BatchedMatMul shape mismatch")
	}
	out := New(bs, m, n)
	if bs*m*k*n < matmulParallelThreshold || Workers() == 1 {
		for i := 0; i < bs; i++ {
			matmulRange(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], 0, m, k, n)
		}
		return out
	}
	if bs <= serialCutoff {
		// Too few batches to fan out over; recover the parallelism inside
		// each product instead (row sharding), which the per-batch leaf
		// kernel above deliberately skips.
		for i := 0; i < bs; i++ {
			defaultPool.matmulInto(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], m, k, n)
		}
		return out
	}
	ParallelFor(bs, func(i int) {
		matmulRange(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], 0, m, k, n)
	})
	return out
}
