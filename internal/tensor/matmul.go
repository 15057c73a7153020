package tensor

import (
	"fmt"
	"iter"
	"math"
)

// The GEMM layer (contract: the package comment). Three products — a@b,
// aᵀ@b, a@bᵀ — all defined by one order: each output element is one chain
// of fused multiply-adds over p ascending. That order is implemented twice:
//
//   - a portable loop body per product (matmulRows, matmulT1Rows,
//     matmulT2Rows below) restricted to a row and column range of dst, every
//     term a math.FMA: the whole implementation where there is no
//     micro-kernel, the fringe where there is one, and the oracle the tests
//     compare the kernels against;
//   - the plain register-tile micro-kernels (gemm_amd64.s), which broadcast
//     a against rows of b with VFMADD231PD: 4×8 tiles, and 4×16 in 512-bit
//     registers where the CPU has AVX-512 (plainTiles picks). a@bᵀ reaches
//     them through a transpose (MatMulT2RowsInto).
//
// A driver per product (matmulRange, matmulT1Range) walks the tile grid of a
// row range that starts on a tile-row boundary. Pools split a product
// between full tile rows, the last shard taking the rows past the last one,
// so the grid — which element a tile computes and which the portable body —
// depends on the shapes alone, never on the pool width, and every dst
// element is accumulated by exactly one goroutine.
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
//
// aᵀ@b reads both operands down their columns: a tile of dst walks four
// elements of a and a tile width of b from each of k rows, m and n apart. A
// weight gradient's operands are token blocks (X or dy, k tokens by M) that
// arrive cold from the exchange, and where a row spans a page (M ≥ 512
// float64s) each step of p lands on a new page, so a tile that walks all k
// rows at once runs at a third of a@b's rate. Such a product runs its tiles
// in depth blocks (matmulT1Range, t1Depth): every tile row of the shard over
// the first block of p, then every tile row over the next, each block
// continuing from what the one before stored. An element is still one chain
// over p ascending — the identity that lets a caller accumulate a
// row-blocked aᵀ@b (MatMulT1AddInto) — so the blocking changes no bit.

// Tile geometry of the plain kernel — a 4×8 tile of dst, whose pairs the
// 512-bit kernel runs as one — which is also the sharding unit of the
// drivers on every build: a pool splits a product between tile rows.
const (
	tileRows = 4
	tileCols = 8
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
// "avx2-fma" for the assembly micro-kernels, which need a CPU with both AVX2
// and FMA; "avx512-fma" where the CPU also has AVX-512F and the 512-bit
// kernel, the GeLU rows and the element-wise row kernels (AddRow,
// AddScaledRowTo) run too; "portable" for the Go loop bodies alone
// (no AVX2 or no FMA, another GOARCH, or a -tags purego build). All three
// carry the same bits.
func Kernel() string {
	switch {
	case use512:
		return "avx512-fma"
	case useKernels:
		return "avx2-fma"
	}
	return "portable"
}

// Windows is a window set over the rows of a 2-D tensor: Count windows of N
// rows each, the first starting at row Lo and each next one Stride rows
// after the start of the one before, less the set's last Clip rows. The
// row-form GEMM entry points run a set as one product; a single window is
// Count = 1 (Window). Rows ascend in set order, so a clipped set is a prefix
// of the unclipped one: a World's chunk over an expert block whose rows past
// the router's fill hold no token (Cut). A product over a clipped set
// neither reads nor writes the rows past the clip.
type Windows struct{ Lo, N, Stride, Count, Clip int }

// Window is the one-window set of rows [lo, lo+n).
func Window(lo, n int) Windows { return Windows{Lo: lo, N: n, Stride: n, Count: 1} }

// Len is the number of rows in the set.
func (w Windows) Len() int { return w.N*w.Count - w.Clip }

// Cut is w less its rows at or past row end.
func (w Windows) Cut(end int) Windows {
	kept := 0
	for c := 0; c < w.Count; c++ {
		kept += min(max(end-w.Lo-c*w.Stride, 0), w.N)
	}
	w.Clip = max(w.Clip, w.N*w.Count-kept)
	return w
}

// kept is how many rows of window c are in the set: N, fewer in the window
// the clip cuts, none past it.
func (w Windows) kept(c int) int { return min(max(w.Len()-c*w.N, 0), w.N) }

// Packed is the set of w's shape packed from row 0: the rows of a buffer
// that holds w's rows in order, Len of them.
func (w Windows) Packed() Windows { return Windows{N: w.N, Stride: w.N, Count: w.Count, Clip: w.Clip} }

// All yields every row of the set in order as (i, t): its position i in the
// set, which is its row in a product's gathered operand, and its row t.
func (w Windows) All() iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for c := 0; c < w.Count; c++ {
			lo := w.Lo + c*w.Stride
			for t := lo; t < lo+w.kept(c); t++ {
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
// overlap, a clip no longer than the set — and its rows end by row rows.
func (w Windows) within(rows int) bool {
	if w.Lo < 0 || w.N < 0 || w.Count < 0 || w.Count > 1 && w.Stride < w.N || w.Clip < 0 || w.Clip > w.N*w.Count {
		return false
	}
	m := w.Len()
	if m == 0 {
		return true
	}
	c := (m - 1) / w.N // the last window with a row in the set
	return w.Lo+c*w.Stride+w.kept(c) <= rows
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
	p.self().windowed((*Pool).matmulInto, dst.data, dw, a.data, aw, b.data, k, n)
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
	if dw.N != aw.N || dw.Count != aw.Count || dw.Clip != aw.Clip || !dw.within(dst.shape[0]) || !aw.within(a.shape[0]) {
		panic(fmt.Sprintf("tensor: %s rows %+v of %v from rows %+v of %v out of range", op, dw, dst.shape, aw, a.shape))
	}
}

// windowed runs one product over a window set: the rows aw of a (width k)
// times b into the rows dw of dst (width n), through gemm — matmulInto or
// matmulT2Into — on contiguous operands. Sets that are one run of rows each
// are the operands themselves. Otherwise each window's whole tiles — all of
// its rows where no kernel would run — run in place, and the rows past
// them, from every window, run as one product in a scratch buffer from the
// free-list (GetUninit): a's rows gathered, the result scattered back to dw's
// rows, on at least a tile of rows, padded with zero rows whose results are
// never stored. Every element is one accumulation over one row of a, so
// where a row is computed changes no bit.
func (p *Pool) windowed(gemm func(p *Pool, dst, a, b []float64, m, k, n int),
	dst []float64, dw Windows, a []float64, aw Windows, b []float64, k, n int) {
	m := dw.Len()
	if m == 0 {
		return
	}
	kernel := kernelFits(k, n)
	if dw.contiguous() && aw.contiguous() && (m >= tileRows || !kernel) {
		gemm(p, dst[dw.Lo*n:(dw.Lo+m)*n], a[aw.Lo*k:(aw.Lo+m)*k], b, m, k, n)
		return
	}
	rest := 0
	for c := 0; c < dw.Count; c++ {
		kept := dw.kept(c)
		full := kept
		if kernel {
			full = wholeTiles(kept)
		}
		if full > 0 {
			dlo, alo := dw.Lo+c*dw.Stride, aw.Lo+c*aw.Stride
			gemm(p, dst[dlo*n:(dlo+full)*n], a[alo*k:(alo+full)*k], b, full, k, n)
		}
		rest += kept - full
	}
	if rest == 0 {
		return
	}
	rows := max(rest, tileRows)
	s := GetUninit(rows * (n + k))
	dd, ad := s.data[:rows*n], s.data[rows*n:]
	gather(ad, a, aw, k, true)
	clear(ad[rest*k:])
	gemm(p, dd, ad, b, rows, k, n)
	scatter(dst, dw, dd, n, true)
	Put(s)
}

// wholeTiles is the rows of a window of kept rows that fill whole tiles.
func wholeTiles(kept int) int { return kept / tileRows * tileRows }

// ReserveScratch readies the free-list (pool.go) for products row-form
// products running at once: its class of the largest buffer asked for so
// far holds at least 3·products buffers, which an empty smaller class hands
// out in its stead — a caller's own buffer, such as an expert stage's, and
// the two a product over a@bᵀ holds at a time. While no more than that are
// out at once, no Get of a size asked for before allocates: a free buffer of
// the largest class is always left. A caller whose products repeat — a
// stream plan replayed step after step, which knows its executor's width —
// calls it once they have run, and from then on no product of the same
// shapes allocates scratch, however its executions happen to overlap. The
// reserve stays with the list, as every buffer Put there does.
func ReserveScratch(products int) {
	free.Lock()
	defer free.Unlock()
	if free.most < 0 {
		return // nothing has been asked for
	}
	c := &free.class[free.most]
	for len(*c) < 3*products {
		*c = append(*c, &Tensor{data: make([]float64, 1<<free.most)})
	}
}

// gather copies the rows of set w of src (width k) to the head of dst, in
// set order; with tails, only each window's rows past its whole tiles —
// the rows windowed does not run in place.
func gather(dst, src []float64, w Windows, k int, tails bool) {
	i := 0
	for c := 0; c < w.Count; c++ {
		lo, n := w.run(c, tails)
		copy(dst[i*k:], src[lo*k:(lo+n)*k])
		i += n
	}
}

// scatter copies the head rows of src, in set order, to the rows of set w of
// dst (width n) — the set's rows only, and with tails gather's.
func scatter(dst []float64, w Windows, src []float64, n int, tails bool) {
	i := 0
	for c := 0; c < w.Count; c++ {
		lo, m := w.run(c, tails)
		copy(dst[lo*n:(lo+m)*n], src[i*n:])
		i += m
	}
}

// run is window c's rows in the set as the first row and a count; with
// tails, those past the window's whole tiles. A window past the clip is 0
// rows from row 0.
func (w Windows) run(c int, tails bool) (lo, n int) {
	n = w.kept(c)
	if n == 0 {
		return 0, 0
	}
	lo = w.Lo + c*w.Stride
	if tails {
		lo, n = lo+wholeTiles(n), n-wholeTiles(n)
	}
	return lo, n
}

// gemmRows is one product the pool shards by tile rows of its m rows: a @ b,
// aᵀ @ b (t1, at depth blocks depth, adding into dst when add) or a @ bᵀ
// (t2), with dst's width n and the depth k. It is a value, not a closure,
// so a parallel product allocates nothing.
type gemmRows struct {
	t1, t2, add bool
	dst, a, b   []float64
	m, k, n     int
	depth       int
}

// rows computes rows [lo, hi) of the product.
func (g *gemmRows) rows(lo, hi int) {
	switch {
	case g.t1:
		matmulT1Range(g.dst, g.a, g.b, lo, hi, g.k, g.m, g.n, g.depth, g.add)
	case g.t2:
		matmulT2Rows(g.dst, g.a, g.b, lo, hi, g.k, g.n)
	default:
		matmulRange(g.dst, g.a, g.b, lo, hi, g.k, g.n)
	}
}

// tiles computes tile rows [lo, hi) of the product: the shard ending at the
// last full tile row also takes the rows past it.
func (g *gemmRows) tiles(lo, hi int) {
	g.rows(lo*tileRows, shardEnd(hi, g.m/tileRows, tileRows, g.m))
}

// gemm runs the product, sharding its tile rows over the pool.
func (p *Pool) gemm(g gemmRows) {
	if p.serialGEMM(g.m, tileRows, g.m*g.k*g.n) {
		g.rows(0, g.m)
		return
	}
	p.parallel(g.m/tileRows, body{mm: g})
}

// matmulInto computes dst = A @ B where A is (m,k), B is (k,n), all
// row-major, sharding tile rows of dst over the pool.
func (p *Pool) matmulInto(dst, a, b []float64, m, k, n int) {
	p.gemm(gemmRows{dst: dst, a: a, b: b, m: m, k: k, n: n})
}

// matmulRange computes rows [lo, hi) of dst = a @ b in matmulRows' order.
// With at least one full tile row the 4×8 tiles go through the plain kernel
// from +0, and the last tile row slides back over rows already written
// rather than leave a row fringe: the product overwrites, so computing a row
// twice stores the same bits twice. Columns past the last full tile column,
// and every smaller range, are matmulRows'.
func matmulRange(dst, a, b []float64, lo, hi, k, n int) {
	if !kernelFits(k, n) || hi-lo < tileRows {
		matmulRows(dst, a, b, lo, hi, 0, n, k, n)
		return
	}
	j8 := n &^ (tileCols - 1)
	for i := lo; i < hi; i += tileRows {
		r := min(i, hi-tileRows)
		plainTiles(dst[r*n:], n, a[r*k:], k, 1, b, n, k, j8/tileCols, false)
	}
	matmulRows(dst, a, b, lo, hi, j8, n, k, n)
}

// kernelFits reports whether a product of depth k and width n reaches the
// micro-kernels: they run full tiles of at least one p.
func kernelFits(k, n int) bool { return useKernels && k > 0 && n >= tileCols }

// plainTiles runs the plain kernel over nt 4×8 tiles of one tile row of dst
// (see gemmPlain for the arguments): pairs of tiles as the 4×16 tiles of
// the 512-bit kernel where the CPU has one, and the AVX2 kernel on the rest.
func plainTiles(dst []float64, ldd int, a []float64, ars, aps int, b []float64, ldb, k, nt int, add bool) {
	if use512 && nt >= 2 {
		gemmPlain512(&dst[0], ldd, &a[0], ars, aps, &b[0], ldb, k, nt/2, add)
		if nt%2 == 0 {
			return
		}
		j := (nt - 1) * tileCols
		dst, b, nt = dst[j:], b[j:], 1
	}
	gemmPlain(&dst[0], ldd, &a[0], ars, aps, &b[0], ldb, k, nt, add)
}

// matmulRows is the portable a @ b body over rows [lo, hi) × columns
// [jlo, jhi) of dst: dst[i,j] = fma(a[i,p], b[p,j], dst[i,j]) one p at a
// time, p ascending, from +0.
func matmulRows(dst, a, b []float64, lo, hi, jlo, jhi, k, n int) {
	if jlo >= jhi {
		return
	}
	for i := lo; i < hi; i++ {
		matmulRow(dst[i*n+jlo:i*n+jhi], a[i*k:(i+1)*k], b, jlo, n)
	}
}

// matmulRow is one row of matmulRows: di = ai @ b[:, jlo:jlo+len(di)] for b
// of width n. Four p at a time, each element's four terms chained in
// registers, so di is loaded and stored once per four terms; the chain is
// the one-p-at-a-time chain, bit for bit. (A function of its own so the
// inner loops get the registers.)
func matmulRow(di, ai, b []float64, jlo, n int) {
	clear(di)
	w, p := len(di), 0
	for ; p+4 <= len(ai); p += 4 {
		a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
		b0, b1 := b[p*n+jlo:][:w], b[(p+1)*n+jlo:][:w]
		b2, b3 := b[(p+2)*n+jlo:][:w], b[(p+3)*n+jlo:][:w]
		for j := range di {
			di[j] = math.FMA(a3, b3[j], math.FMA(a2, b2[j], math.FMA(a1, b1[j], math.FMA(a0, b0[j], di[j]))))
		}
	}
	for ; p < len(ai); p++ {
		for j, bv := range b[p*n+jlo:][:w] {
			di[j] = math.FMA(ai[p], bv, di[j])
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
	defaultPool.matmulT1(out.data, a.data, b.data, k, m, n, false)
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
func MatMulT1AddInto(dst, a, b *Tensor) {
	k, m, n := t1Shape(dst, a, b, "MatMulT1AddInto")
	defaultPool.matmulT1(dst.data, a.data, b.data, k, m, n, true)
}

// MatMulT1Into computes dst = aᵀ @ b with the pool convention of
// Pool.MatMulInto.
func (p *Pool) MatMulT1Into(dst, a, b *Tensor) {
	k, m, n := t1Shape(dst, a, b, "MatMulT1Into")
	p.self().matmulT1(dst.data, a.data, b.data, k, m, n, false)
}

// MatMulT1HeadInto computes dst = aᵀ @ b over the first k rows of a and b
// alone — dst += aᵀ @ b with add — with the pool convention of
// Pool.MatMulInto: the bits of MatMulT1Into (MatMulT1AddInto) on the views
// a.Slice(0, k) and b.Slice(0, k), without making them. a and b may hold
// more rows than k, and different counts: an expert's weight gradient over
// the rows of its block the router filled.
func (p *Pool) MatMulT1HeadInto(dst, a, b *Tensor, k int, add bool) {
	if a.Rank() != 2 || b.Rank() != 2 || k < 0 || k > a.shape[0] || k > b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulT1HeadInto over %d rows of %v and %v", k, a.shape, b.shape))
	}
	m, n := a.shape[1], b.shape[1]
	checkDst(dst, m, n, "MatMulT1HeadInto")
	p.self().matmulT1(dst.data, a.data[:k*m], b.data[:k*n], k, m, n, add)
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

// matmulT1 is dst = aᵀ @ b, or dst += aᵀ @ b when add, for a (k,m), b
// (k,n): dst[i,j] is a chain over p ascending whichever worker owns row i,
// so tile rows of dst (columns of a) shard over the pool like the other two
// products.
func (p *Pool) matmulT1(dst, a, b []float64, k, m, n int, add bool) {
	p.gemm(gemmRows{t1: true, add: add, dst: dst, a: a, b: b, m: m, k: k, n: n, depth: t1Depth(k, m, n)})
}

// The depth blocks of aᵀ@b: t1Block rows of p per block, where a row of the
// operand a tile walks down — a (k, m), or b (k, n) — spans t1PageRow
// float64s, a 4 KiB page, and k is more than one block. BenchmarkMatMulT1 is
// the measurement. On the 2-core AVX-512 reference box (medians of three)
// ep_tokens' three products — m or n = 512, k = 116 and 384 — run cold
// (operands cycled through 8 MiB) at 8–20 GFLOP/s in one block and 16–29
// in blocks of 32, and hot no slower in blocks; blocks of 16 are slower
// than blocks of 32 on all three cold, and no faster hot. The gates' dWg on
// the other workloads (m ≤ 256, n = 8) lose 15–30 % hot in blocks, and the
// bench probe's product, one pipeline chunk deep (k = 29), is less than a
// block.
const (
	t1Block   = 32
	t1PageRow = 512
)

// t1Depth is the depth of matmulT1Range's blocks for a (k,m), b (k,n): a
// function of the shapes alone, like the tile grid.
func t1Depth(k, m, n int) int {
	if k > t1Block && max(m, n) >= t1PageRow {
		return t1Block
	}
	return k
}

// matmulT1Range computes rows [lo, hi) of aᵀ @ b into dst — or adds them,
// when add — in matmulT1Rows' order: full 4×8 tiles through the plain kernel
// reading a at stride (1, m), the rest through matmulT1Rows on a cleared
// range or on dst. The tiles run over p in blocks of depth rows: every tile
// row over the first block, from +0 or from dst, then every tile row over
// the next, from what the block before stored, so the rows of a and b that a
// block walks stay in cache and in the TLB across the tile rows. The kernel
// stores a tile's chain as it stands and takes it up again from dst — the
// chain over p ascending that one block would compute, bit for bit. The
// product may accumulate, so no tile covers a row twice and the rows past
// the last full tile row stay a fringe.
func matmulT1Range(dst, a, b []float64, lo, hi, k, m, n, depth int, add bool) {
	i4, j8 := lo, 0
	if kernelFits(k, n) && hi-lo >= tileRows {
		i4, j8 = hi-(hi-lo)%tileRows, n&^(tileCols-1)
		for p0 := 0; p0 < k; p0 += depth {
			for i := lo; i < i4; i += tileRows {
				plainTiles(dst[i*n:], n, a[p0*m+i:], 1, m, b[p0*n:], n, min(depth, k-p0), j8/tileCols, add || p0 > 0)
			}
		}
	}
	if !add {
		for i := lo; i < i4; i++ {
			clear(dst[i*n+j8 : (i+1)*n])
		}
		clear(dst[i4*n : hi*n])
	}
	matmulT1Rows(dst, a, b, lo, i4, j8, n, k, m, n)
	matmulT1Rows(dst, a, b, i4, hi, 0, n, k, m, n)
}

// matmulT1Rows is the portable dst += aᵀ @ b body over rows [lo, hi) ×
// columns [jlo, jhi) of dst: dst[i,j] = fma(a[p,i], b[p,j], dst[i,j]) one p
// at a time, p ascending, continuing from what dst holds.
func matmulT1Rows(dst, a, b []float64, lo, hi, jlo, jhi, k, m, n int) {
	if lo >= hi || jlo >= jhi {
		return
	}
	w := jhi - jlo
	for p := 0; p < k; p++ {
		bp := b[p*n+jlo:][:w]
		for i, av := range a[p*m+lo : p*m+hi] {
			di := dst[(lo+i)*n+jlo:][:w]
			for j, bv := range bp {
				di[j] = math.FMA(av, bv, di[j])
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
	p, bd, m := p.self(), b.data[blo*k:bhi*k], dw.Len()
	switch {
	case m == 0:
	case !kernelFits(k, n):
		p.windowed((*Pool).matmulT2Into, dst.data, dw, a.data, aw, bd, k, n)
	case 2*n*k <= 3*padCols(m)*(k+n):
		bt := GetUninit(k * n)
		transpose(bt.data, bd, n, k)
		p.windowed((*Pool).matmulInto, dst.data, dw, a.data, aw, bt.data, k, n)
		Put(bt)
	default:
		p.matmulT2ViaA(dst.data, dw, a.data, aw, bd, m, k, n)
	}
}

// Where the kernels run, a@bᵀ runs on the plain ones, through whichever
// operand is cheaper to transpose: b itself, n·k elements, after which the
// set is MatMulRowsInto's product with bᵀ; or the set's rows of a, padded
// with zero rows to a whole number of tile columns, and the result,
// mp·(k+n) elements (matmulT2ViaA), weighed at 3/2 because that route also
// gathers and scatters them. In BenchmarkGemmChunk on the 2-core AVX-512
// reference box the rule picks the faster route at all four shapes (b at
// 7×4 and 10×4 windows, a at 3×4 and 6×4); in the repository benchmark on
// that box, always transposing b makes ep_params' step_ms_min 11 % higher
// (lower in 1 of 10 runs) and ties on mixed_ckpt. Either way each element
// is the same chain of fused multiply-adds as the portable dot products —
// fma is exact in either order of its factors — so the route changes no
// bit.

// padCols is m rounded up to a whole number of tile columns.
func padCols(m int) int { return (m + tileCols - 1) &^ (tileCols - 1) }

// matmulT2ViaA computes the rows dw of dst = a @ bᵀ (b (n, k), unwindowed)
// as the transpose of b @ aᵀ: the set's m rows of a gathered, padded and
// transposed to aᵀ (k, mp), the product b @ aᵀ (n, mp) sharded over b's
// rows, and its transpose's first m rows scattered to dw.
func (p *Pool) matmulT2ViaA(dst []float64, dw Windows, a []float64, aw Windows, b []float64, m, k, n int) {
	mp := padCols(m)
	s := GetUninit(mp * (2*k + 2*n))
	ag, at, dt, d := s.data[:mp*k], s.data[mp*k:2*mp*k], s.data[2*mp*k:2*mp*k+n*mp], s.data[2*mp*k+n*mp:]
	gather(ag, a, aw, k, false)
	clear(ag[m*k:])
	transpose(at, ag, mp, k)
	p.matmulInto(dt, b, at, n, k, mp)
	transpose(d, dt, n, mp)
	scatter(dst, dw, d, n, false)
	Put(s)
}

// transpose writes the (k, n) transpose of the (n, k) matrix b to bt: 4×8
// blocks in registers where the kernels run, the rows and columns past the
// last block — and every element on other builds — one by one. Either way
// each element is copied, so its bits do not depend on the route.
func transpose(bt, b []float64, n, k int) {
	n4, k8 := n&^3, k&^7
	if !useKernels {
		n4, k8 = 0, 0
	}
	if n4 > 0 && k8 > 0 {
		transposeTiles(&bt[0], n, &b[0], k, n4/4, k8/8)
	}
	for j := 0; j < n; j++ {
		lo := k8
		if j >= n4 {
			lo = 0
		}
		for p := lo; p < k; p++ {
			bt[p*n+j] = b[j*k+p]
		}
	}
}

// matmulT2Into is the portable dst = a @ bᵀ for a (m,k) and b (n,k), all
// row-major, sharding tile rows of dst over the pool.
func (p *Pool) matmulT2Into(dst, a, b []float64, m, k, n int) {
	p.gemm(gemmRows{t2: true, dst: dst, a: a, b: b, m: m, k: k, n: n})
}

// matmulT2Rows is the portable a @ bᵀ body over rows [lo, hi) of dst: each
// element is one dot product, s = fma(a[i,p], b[j,p], s) with p ascending
// from +0. The j-loop is blocked four-wide so four dots share each streamed
// load of a's row; the blocking changes no bit.
func matmulT2Rows(dst, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		matmulT2Row(dst[i*n:(i+1)*n], a[i*k:(i+1)*k], b, k)
	}
}

// matmulT2Row is one row of matmulT2Rows: di[j] = ai · b[j] for b of width k.
func matmulT2Row(di, ai, b []float64, k int) {
	j := 0
	for ; j+4 <= len(di); j += 4 {
		di[j], di[j+1], di[j+2], di[j+3] = dot4(ai, b[j*k:], b[(j+1)*k:], b[(j+2)*k:], b[(j+3)*k:])
	}
	for ; j < len(di); j++ {
		s := 0.0
		for p, bv := range b[j*k:][:len(ai)] {
			s = math.FMA(ai[p], bv, s)
		}
		di[j] = s
	}
}

// dot4 runs four dot products that share ai. Kept out of line: inlined into
// the row loop, the compiler spills p on every iteration.
//
//go:noinline
func dot4(ai, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(ai)], b1[:len(ai)], b2[:len(ai)], b3[:len(ai)]
	for p, av := range ai {
		s0 = math.FMA(av, b0[p], s0)
		s1 = math.FMA(av, b1[p], s1)
		s2 = math.FMA(av, b2[p], s2)
		s3 = math.FMA(av, b3[p], s3)
	}
	return s0, s1, s2, s3
}

// Transpose2DInto writes the transpose of a (m, n) into dst (n, m),
// overwriting it, through the register-tile transpose a@bᵀ uses.
func Transpose2DInto(dst, a *Tensor) {
	if a.Rank() != 2 {
		panic("tensor: Transpose2DInto requires a 2-D tensor")
	}
	m, n := a.shape[0], a.shape[1]
	checkDst(dst, n, m, "Transpose2DInto")
	transpose(dst.data, a.data, m, n)
}
