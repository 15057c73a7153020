package tensor

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// gemmCase is one operand recipe, checked over all six GEMM entry points
// at pool widths 1/2/4 against the portable loop bodies run over the whole
// product — the one definition of each association order. On a build
// without micro-kernels the drivers are those bodies, so the comparison is
// an identity that still exercises the window sets and the sharding. The
// row forms run over a window set per operand: count windows of m rows; the
// other entry points over the set's rows gathered, so every product is
// m·count rows.
type gemmCase struct {
	seed     uint64
	m, n, k  int
	win      int  // rows in front of the dst/a/b windows (win, win+1, win+2: odd offsets give unaligned bases)
	count    int  // windows per set (0 is 1)
	gap      int  // rows between windows: gap%3 in dst's set, gap/3 in a's
	zeroTail int  // trailing all-zero rows of the token block (capacity padding)
	zeroPct  int  // share of a's elements, and of its aligned 4-groups, forced to ±0
	special  int  // 0: finite operands; 1/2: a NaN/Inf planted in a; 3/4: in b
	wide     bool // FuzzGemmKernels' wide mode: aᵀ@b alone (checkMatMulT1), win, count, gap and clip unused
	clip     int  // rows the row forms also run without, off the sets' tail (0: none)
}

func (c gemmCase) String() string {
	return fmt.Sprintf("seed=%d m=%d n=%d k=%d win=%d count=%d gap=%d zeroTail=%d zeroPct=%d special=%d wide=%t clip=%d",
		c.seed, c.m, c.n, c.k, c.win, c.count, c.gap, c.zeroTail, c.zeroPct, c.special, c.wide, c.clip)
}

// sets returns the row forms' window sets in dst and in a.
func (c gemmCase) sets() (dw, aw Windows) {
	count := max(c.count, 1)
	return Windows{Lo: c.win, N: c.m, Stride: c.m + c.gap%3, Count: count},
		Windows{Lo: c.win + 1, N: c.m, Stride: c.m + c.gap/3, Count: count}
}

// setRows lists the rows of set w in order, and how many rows a tensor
// needs to hold them and one more past the last window.
func setRows(w Windows) (rows []int, end int) {
	for c := 0; c < w.Count; c++ {
		for r := 0; r < w.N; r++ {
			rows = append(rows, w.Lo+c*w.Stride+r)
		}
	}
	return rows, w.Lo + (w.Count-1)*w.Stride + w.N + 1
}

// gathered returns t's rows of set w, in order, as one slice.
func gathered(t *Tensor, w Windows) []float64 {
	rows, _ := setRows(w)
	cols := t.shape[1]
	var out []float64
	for _, r := range rows {
		out = append(out, t.data[r*cols:(r+1)*cols]...)
	}
	return out
}

// embedded returns the rows of g as the rows of set w of a tensor whose
// other rows are NaN: a product that reads a row outside its set shows.
func embedded(g *Tensor, w Windows) *Tensor {
	rows, end := setRows(w)
	cols := g.shape[1]
	t := New(end, cols)
	t.Fill(math.NaN())
	for i, r := range rows {
		copy(t.data[r*cols:(r+1)*cols], g.data[i*cols:(i+1)*cols])
	}
	return t
}

func signedZero(rng *xrand.RNG) float64 {
	if int(rng.Uint64()%2) == 0 {
		return math.Copysign(0, -1)
	}
	return 0
}

// gemmOperand returns a (rows, cols) operand of standard normals with
// zeroPct% of its elements and of each row's aligned 4-groups set to ±0.
func gemmOperand(rng *xrand.RNG, rows, cols, zeroPct int) *Tensor {
	t := RandN(rng, 1, rows, cols)
	for i := range t.data {
		if int(rng.Uint64()%100) < zeroPct {
			t.data[i] = signedZero(rng)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c+4 <= cols; c += 4 {
			if int(rng.Uint64()%100) < zeroPct {
				for q := 0; q < 4; q++ {
					t.data[r*cols+c+q] = signedZero(rng)
				}
			}
		}
	}
	return t
}

// plant overwrites one element of rows [lo, hi) of t with a NaN (odd kind)
// or a signed Inf (even kind).
func plant(rng *xrand.RNG, t *Tensor, lo, hi, kind int) {
	cols := t.shape[1]
	if hi <= lo || cols == 0 {
		return
	}
	v := math.NaN()
	if kind%2 == 0 {
		v = math.Inf(int(rng.Uint64()%2)*2 - 1)
	}
	t.data[(lo+int(rng.Uint64()%uint64(hi-lo)))*cols+int(rng.Uint64()%uint64(cols))] = v
}

// gemmEqual requires got to carry want's bits, except that where want is a
// NaN any NaN will do: kernel and portable body agree on which elements are
// non-finite, not on a NaN's payload.
func gemmEqual(t *testing.T, c gemmCase, what string, width int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v width %d: %s has %d elements, want %d", c, width, what, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%v width %d (%s kernels): %s element %d = %v (%#x), the portable body gives %v (%#x)",
				c, width, Kernel(), what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// nanRows is rows rows of cols NaNs.
func nanRows(rows, cols int) []float64 {
	out := make([]float64, rows*cols)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

// window returns rows [lo, lo+rows) of a 2-D tensor's backing array.
func window(t *Tensor, lo, rows int) []float64 {
	cols := t.shape[1]
	return t.data[lo*cols : (lo+rows)*cols]
}

// framed returns a destination of cols columns whose rows in set w hold fill
// and whose every other row — ahead of, between and past the windows —
// holds a sentinel, and a check that those rows kept it.
func framed(w Windows, cols int, fill float64) (*Tensor, func() bool) {
	const sentinel = 7.5
	rows, end := setRows(w)
	d := New(end, cols)
	d.Fill(sentinel)
	in := make([]bool, end)
	for _, r := range rows {
		in[r] = true
		for j := range cols {
			d.data[r*cols+j] = fill
		}
	}
	return d, func() bool {
		for i, v := range d.data {
			if !in[i/cols] && v != sentinel {
				return false
			}
		}
		return true
	}
}

func checkGemmKernels(t *testing.T, c gemmCase) {
	t.Helper()
	rng := xrand.New(c.seed)
	dw, aw := c.sets()
	m, n, k := dw.Len(), c.n, c.k
	blo := c.win + 2
	zt := min(c.zeroTail, m)

	// a @ b and a @ bᵀ share the (·, k) token block: ag is the set's rows of
	// a, gathered; bT is b's (·, k) form.
	ag := gemmOperand(rng, m, k, c.zeroPct)
	clear(window(ag, m-zt, zt))
	b := gemmOperand(rng, k, n, 0)
	bT := gemmOperand(rng, blo+n+1, k, 0)
	// aᵀ @ b reads the token block as (k, m): its trailing token rows are rows of p.
	a1 := gemmOperand(rng, k, m, c.zeroPct)
	clear(window(a1, k-min(c.zeroTail, k), min(c.zeroTail, k)))
	b1 := gemmOperand(rng, k, n, 0)
	base := gemmOperand(rng, m, n, 10) // T1AddInto's prior contents: finite, some −0
	switch c.special {
	case 1, 2:
		plant(rng, ag, 0, m, c.special)
		plant(rng, a1, 0, k, c.special)
	case 3, 4:
		plant(rng, b, 0, k, c.special)
		plant(rng, bT, blo, blo+n, c.special)
		plant(rng, b1, 0, k, c.special)
	}
	a := embedded(ag, aw)
	bTw := window(bT, blo, n)

	want := make([]float64, m*n)
	matmulRows(want, ag.data, b.data, 0, m, 0, n, k, n)
	wantT1 := make([]float64, m*n)
	matmulT1Rows(wantT1, a1.data, b1.data, 0, m, 0, n, k, m, n)
	wantT1Add := append([]float64(nil), base.data...)
	matmulT1Rows(wantT1Add, a1.data, b1.data, 0, m, 0, n, k, m, n)
	wantT2 := make([]float64, m*n)
	matmulT2Rows(wantT2, ag.data, bTw, 0, m, k, n)

	for _, w := range []int{1, 2, 4} {
		p := NewPool(w)
		nan := math.NaN()

		d, intact := framed(dw, n, nan)
		p.MatMulRowsInto(d, dw, a, aw, b)
		gemmEqual(t, c, "MatMulRowsInto", w, gathered(d, dw), want)
		if !intact() {
			t.Fatalf("%v width %d: MatMulRowsInto wrote outside its window set", c, w)
		}
		whole := New(m, n)
		whole.Fill(nan)
		p.MatMulInto(whole, ag, b)
		gemmEqual(t, c, "MatMulInto", w, whole.data, want)

		whole.Fill(nan)
		p.MatMulT1Into(whole, a1, b1)
		gemmEqual(t, c, "MatMulT1Into", w, whole.data, wantT1)
		// The head forms read the first k rows of operands with more, NaN
		// past them (an expert block past its fill).
		a1x, b1x := a1.Clone(), b1.Clone()
		a1x.data, b1x.data = append(a1x.data, nanRows(2, m)...), append(b1x.data, nanRows(3, n)...)
		a1x.shape[0], b1x.shape[0] = k+2, k+3
		whole.Fill(nan)
		p.MatMulT1HeadInto(whole, a1x, b1x, k, false)
		gemmEqual(t, c, "MatMulT1HeadInto", w, whole.data, wantT1)
		sum := base.Clone()
		p.MatMulT1HeadInto(sum, a1x, b1x, k, true)
		gemmEqual(t, c, "MatMulT1HeadInto (add)", w, sum.data, wantT1Add)

		d, intact = framed(dw, n, nan)
		p.MatMulT2RowsInto(d, dw, a, aw, bT, blo, blo+n)
		gemmEqual(t, c, "MatMulT2RowsInto", w, gathered(d, dw), wantT2)
		if !intact() {
			t.Fatalf("%v width %d: MatMulT2RowsInto wrote outside its window set", c, w)
		}
		whole.Fill(nan)
		p.MatMulT2Into(whole, ag, bT.Slice(blo, blo+n))
		gemmEqual(t, c, "MatMulT2Into", w, whole.data, wantT2)

		if c.clip > 0 {
			checkClipped(t, c, p, dw, aw, ag, func(p *Pool, d *Tensor, dw Windows, a *Tensor, aw Windows) {
				p.MatMulRowsInto(d, dw, a, aw, b)
			}, "MatMulRowsInto", want)
			checkClipped(t, c, p, dw, aw, ag, func(p *Pool, d *Tensor, dw Windows, a *Tensor, aw Windows) {
				p.MatMulT2RowsInto(d, dw, a, aw, bT, blo, blo+n)
			}, "MatMulT2RowsInto", wantT2)
		}
		p.Close()
	}
}

// poison is the NaN the rows a clipped product must leave alone start as:
// a payload no product computes.
var poison = math.Float64frombits(0x7ff8_0000_0bad_f00d)

// checkClipped runs a row-form product over the sets dw and aw less their
// last c.clip rows, on a's gathered rows ag with the clipped ones NaN: the
// kept rows must carry want's bits, dst's clipped rows stay poison bit for
// bit, and every row outside the set keeps its sentinel.
func checkClipped(t *testing.T, c gemmCase, p *Pool, dw, aw Windows, ag *Tensor,
	product func(p *Pool, d *Tensor, dw Windows, a *Tensor, aw Windows), what string, want []float64) {
	t.Helper()
	n := len(want) / dw.Len()
	kept := dw.Len() - c.clip
	agc := ag.Clone()
	for i := kept * ag.shape[1]; i < len(agc.data); i++ {
		agc.data[i] = math.NaN()
	}
	cw, ca := dw, aw
	cw.Clip, ca.Clip = c.clip, c.clip
	if cw.Len() != kept || ca.Len() != kept {
		t.Fatalf("%v: clipped sets %+v, %+v hold %d and %d rows, want %d", c, cw, ca, cw.Len(), ca.Len(), kept)
	}
	d, intact := framed(dw, n, poison)
	product(p, d, cw, embedded(agc, aw), ca)
	got := gathered(d, dw)
	gemmEqual(t, c, what+" clipped", p.Workers(), got[:kept*n], want[:kept*n])
	for i, v := range got[kept*n:] {
		if math.Float64bits(v) != math.Float64bits(poison) {
			t.Fatalf("%v width %d: %s clipped wrote %v over element %d, past the clip", c, p.Workers(), what, v, kept*n+i)
		}
	}
	if !intact() {
		t.Fatalf("%v width %d: %s clipped wrote outside its window set", c, p.Workers(), what)
	}
}

// checkMatMulT1 holds aᵀ@b alone to the portable body, for products too
// wide for checkGemmKernels' six: MatMulT1Into and MatMulT1HeadInto's add at
// pool widths 1/2/4; matmulT1Range in blocks of every depth from 1 past t1Block
// that splits k differently, and in one block; and the product accumulated
// over row blocks of a and b — MatMulT1Into on the first, MatMulT1AddInto
// on the rest, blocks both shallower and deeper than t1Block — which must
// be the one-call product.
func checkMatMulT1(t *testing.T, c gemmCase) {
	t.Helper()
	rng := xrand.New(c.seed)
	m, n, k := c.m, c.n, c.k
	a := gemmOperand(rng, k, m, c.zeroPct)
	clear(window(a, k-min(c.zeroTail, k), min(c.zeroTail, k)))
	b := gemmOperand(rng, k, n, 0)
	base := gemmOperand(rng, m, n, 10)
	switch c.special {
	case 1, 2:
		plant(rng, a, 0, k, c.special)
	case 3, 4:
		plant(rng, b, 0, k, c.special)
	}
	want := make([]float64, m*n)
	matmulT1Rows(want, a.data, b.data, 0, m, 0, n, k, m, n)
	wantAdd := slices.Clone(base.data)
	matmulT1Rows(wantAdd, a.data, b.data, 0, m, 0, n, k, m, n)

	got := New(m, n)
	for _, w := range []int{1, 2, 4} {
		p := NewPool(w)
		got.Fill(math.NaN())
		p.MatMulT1Into(got, a, b)
		gemmEqual(t, c, "MatMulT1Into", w, got.data, want)
		sum := base.Clone()
		p.MatMulT1HeadInto(sum, a, b, k, true)
		gemmEqual(t, c, "MatMulT1HeadInto (add)", w, sum.data, wantAdd)
		p.Close()
	}
	for _, depth := range []int{1, 7, t1Block - 1, t1Block, t1Block + 1, k} {
		got.Fill(math.NaN())
		matmulT1Range(got.data, a.data, b.data, 0, m, k, m, n, depth, false)
		gemmEqual(t, c, fmt.Sprintf("matmulT1Range at depth %d", depth), 1, got.data, want)
	}
	cuts := []int{0, k / 3, min(k, k/3+t1Block+1), k}
	got.Fill(math.NaN())
	for i := range 3 {
		lo, hi := cuts[i], cuts[i+1]
		if i == 0 {
			MatMulT1Into(got, a.Slice(lo, hi), b.Slice(lo, hi))
		} else {
			MatMulT1AddInto(got, a.Slice(lo, hi), b.Slice(lo, hi))
		}
	}
	gemmEqual(t, c, fmt.Sprintf("MatMulT1Into + MatMulT1AddInto over rows %v", cuts), 0, got.data, want)
}

// TestMatMulT1BlockedMatchesPortable runs checkMatMulT1 at the products the
// repository benchmark's ep_tokens step runs in depth blocks: the experts'
// dW1 (116, 512, 16) and dW2 (116, 16, 512) and the gate's dWg (384, 512, 8).
func TestMatMulT1BlockedMatchesPortable(t *testing.T) {
	for i, s := range [][3]int{{116, 512, 16}, {116, 16, 512}, {384, 512, 8}} {
		k, m, n := s[0], s[1], s[2]
		if t1Depth(k, m, n) == k {
			t.Fatalf("(k, m, n) = (%d, %d, %d) no longer runs in depth blocks", k, m, n)
		}
		checkMatMulT1(t, gemmCase{seed: uint64(300 + i), m: m, n: n, k: k, zeroTail: 3 * i, zeroPct: 15 * i, special: i})
	}
}

// TestGemmKernelsMatchPortable sweeps every fringe remainder of the three
// tile grids (m below, at and past 4 and 8; n below, at and past 8 and 4;
// k below, at and past a 4-group, and 0) with the operand recipes rotating,
// then shapes past matmulParallelThreshold, where widths 2 and 4 really
// shard tile rows — one per remainder of m modulo the taller tile.
func TestGemmKernelsMatchPortable(t *testing.T) {
	i := 0
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 17} {
		for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 25} {
			for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13} {
				i++
				checkGemmKernels(t, gemmCase{
					seed: uint64(i), m: m, n: n, k: k,
					win: i % 3, zeroTail: i % 4, zeroPct: []int{0, 15, 60, 100}[i/4%4], special: max(i%13-8, 0),
				})
			}
		}
	}
	if 64*137*242 < matmulParallelThreshold {
		t.Fatal("the large shapes no longer clear matmulParallelThreshold")
	}
	for r := 0; r < 8; r++ {
		checkGemmKernels(t, gemmCase{
			seed: uint64(100 + r), m: 64 + r, n: 137 + r%3, k: 242 + r%5,
			win: r % 2, zeroTail: 5 * (r % 2), zeroPct: 10 * (r % 3), special: max(r-3, 0),
		})
	}
	// Thin sets against a wide, deep b, whose a@bᵀ transposes a rather than
	// b (MatMulT2RowsInto) — the last one past the threshold, so b @ aᵀ
	// shards over b's rows.
	for r, c := range []gemmCase{
		{m: 1, n: 64, k: 64}, {m: 2, count: 2, n: 72, k: 69}, {m: 3, count: 3, n: 80, k: 74},
		{m: 4, n: 88, k: 79}, {m: 5, count: 2, n: 96, k: 84}, {m: 6, count: 3, n: 104, k: 89}, {m: 3, n: 600, k: 500},
	} {
		c.seed, c.win, c.gap, c.zeroTail, c.zeroPct, c.special = uint64(200+r), r%3, r, r%4, 15*(r%3), max(r-4, 0)
		if m := c.m * max(c.count, 1); 2*c.n*c.k <= 3*padCols(m)*(c.k+c.n) {
			t.Fatalf("%v no longer takes the transpose of a", c)
		}
		checkGemmKernels(t, c)
	}
	if 600*500*padCols(3) < matmulParallelThreshold {
		t.Fatal("the widest thin set no longer clears matmulParallelThreshold")
	}
}

// TestGemmWindowSetsMatchPortable sweeps window sets: every window height
// from 1 to 10 — below, at and past both tile heights — in one to five
// windows, with dst's and a's strides each at or past the height, over
// column counts and depths a tile does and does not fit, each also clipped
// (checkClipped) at a row that walks the set; then sets of
// several windows past matmulParallelThreshold, whose gathered product
// really shards.
func TestGemmWindowSetsMatchPortable(t *testing.T) {
	i := 0
	for h := 1; h <= 10; h++ {
		for count := 1; count <= 5; count++ {
			for _, nk := range [][2]int{{3, 5}, {4, 4}, {8, 7}, {17, 13}} {
				i++
				checkGemmKernels(t, gemmCase{
					seed: uint64(1000 + i), m: h, n: nk[0], k: nk[1], win: i % 3, count: count, gap: i % 9,
					zeroTail: i % 4, zeroPct: []int{0, 15, 60, 100}[i/4%4], special: max(i%13-8, 0), clip: 7 * i % (h*count + 1),
				})
			}
		}
	}
	if 4*17*137*242 < matmulParallelThreshold {
		t.Fatal("the large sets no longer clear matmulParallelThreshold")
	}
	for r := 0; r < 4; r++ {
		checkGemmKernels(t, gemmCase{
			seed: uint64(2000 + r), m: 17 + r, n: 137 + r%3, k: 242 + r%5, win: r % 2, count: 4, gap: 2*r + 1,
			zeroTail: 5 * (r % 2), zeroPct: 10 * (r % 3), special: max(r-1, 0),
		})
	}
}

// TestGemmWindowSetsConcurrent runs window-set products from several
// goroutines at once, as a World's compute streams do: they share
// windowed's scratch free-list, and each product must still get a buffer of
// its own.
func TestGemmWindowSetsConcurrent(t *testing.T) {
	rng := xrand.New(7)
	w := Windows{Lo: 1, N: 3, Stride: 7, Count: 4}
	a, b, bT := RandN(rng, 1, 30, 24), RandN(rng, 1, 24, 16), RandN(rng, 1, 16, 24)
	want, wantT2 := make([]float64, w.Len()*16), make([]float64, w.Len()*16)
	ag := gathered(a, w)
	matmulRows(want, ag, b.data, 0, w.Len(), 0, 16, 24, 16)
	matmulT2Rows(wantT2, ag, bT.data, 0, w.Len(), 24, 16)
	bad := make([]bool, 4)
	var wg sync.WaitGroup
	for g := range bad {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewPool(1)
			for range 100 {
				d := New(30, 16)
				p.MatMulRowsInto(d, w, a, w, b)
				got := gathered(d, w)
				p.MatMulT2RowsInto(d, w, a, w, bT, 0, 16)
				if !slices.Equal(got, want) || !slices.Equal(gathered(d, w), wantT2) {
					bad[g] = true
					return
				}
			}
		}()
	}
	wg.Wait()
	if slices.Contains(bad, true) {
		t.Fatalf("concurrent window-set products disagree with the portable body: %v", bad)
	}
}

// FuzzGemmKernels drives the same check from fuzzed shapes, recipes and
// window sets. A set of several windows is drawn as thin as the step's
// chunk windows are, 1 to 10 rows — every height below both tiles, and
// ep_compute's 10; a single window up to 80. With win's top bit set the case
// is wide: aᵀ@b alone (checkMatMulT1) with m or n at 512 to 591 — a page and
// more per row, which runs in depth blocks — the other up to 80, and k from
// 65 to 136, past two blocks. clip draws how many rows off the sets' tail
// the row forms also run without (checkClipped), none to all of them.
func FuzzGemmKernels(f *testing.F) {
	for _, s := range gemmFuzzSeeds {
		f.Add(s.seed, s.b[0], s.b[1], s.b[2], s.b[3], s.b[4], s.b[5], s.b[6], s.b[7], s.b[8], s.b[9])
	}
	f.Fuzz(func(t *testing.T, seed uint64, m, n, k, win, zeroTail, zeroPct, special, count, gap, clip uint8) {
		checkGemmFuzz(t, fuzzGemmCase(seed, [10]uint8{m, n, k, win, zeroTail, zeroPct, special, count, gap, clip}))
	})
}

// checkGemmFuzz runs one FuzzGemmKernels case.
func checkGemmFuzz(t *testing.T, c gemmCase) {
	t.Helper()
	if c.wide {
		checkMatMulT1(t, c)
		return
	}
	checkGemmKernels(t, c)
}

// gemmFuzzSeed is one FuzzGemmKernels input: the seed and the ten bytes
// m, n, k, win, zeroTail, zeroPct, special, count, gap, clip.
type gemmFuzzSeed struct {
	seed uint64
	b    [10]uint8
}

var gemmFuzzSeeds = []gemmFuzzSeed{
	{1, [10]uint8{9, 17, 6, 1, 0, 0, 0, 0, 0, 0}},
	{2, [10]uint8{40, 64, 3, 0, 12, 20, 0, 0, 0, 0}},
	{3, [10]uint8{3, 7, 0, 2, 0, 100, 3, 0, 0, 0}},
	{4, [10]uint8{2, 9, 8, 1, 1, 10, 0, 3, 5, 0}},
	{5, [10]uint8{0, 15, 51, 0x80, 3, 10, 0, 0, 0, 0}}, // wide: ep_tokens' dW1, (116, 512, 16)
	{6, [10]uint8{15, 0, 51, 0xc0, 0, 0, 0, 0, 0, 0}},  // wide: ep_tokens' dW2, (116, 16, 512)
	{7, [10]uint8{7, 8, 200, 0x80, 0, 20, 3, 0, 0, 0}}, // wide: (121, 519, 9), a column fringe, a NaN in b
	{8, [10]uint8{9, 63, 63, 1, 0, 0, 0, 3, 4, 13}},    // ep_compute's chunk, clipped inside its third window
	{9, [10]uint8{2, 9, 8, 1, 1, 10, 1, 3, 5, 12}},     // every row clipped, a NaN in a
}

// fuzzGemmCase maps FuzzGemmKernels' arguments to its case.
func fuzzGemmCase(seed uint64, b [10]uint8) gemmCase {
	m, n, k, win, zeroTail, zeroPct, special, count, gap, clip := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9]
	c := gemmCase{
		seed: seed, m: int(m%80) + 1, n: int(n%80) + 1, k: int(k % 72), win: int(win % 4), count: int(count%5) + 1,
		gap: int(gap % 9), zeroTail: int(zeroTail % 16), zeroPct: int(zeroPct % 101), special: int(special % 5),
	}
	if c.count > 1 {
		c.m = int(m%10) + 1
	}
	c.clip = int(clip) % (c.m*c.count + 1)
	if win&0x80 != 0 {
		c.wide, c.k = true, 2*t1Block+1+int(k%72)
		if win&0x40 != 0 {
			c.m, c.n = int(m%80)+1, t1PageRow+int(n%80)
		} else {
			c.m, c.n = t1PageRow+int(m%80), int(n%80)+1
		}
	}
	return c
}
