package tensor

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// gemmCase is one operand recipe, checked over all seven GEMM entry points
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
	win      int // rows in front of the dst/a/b windows (win, win+1, win+2: odd offsets give unaligned bases)
	count    int // windows per set (0 is 1)
	gap      int // rows between windows: gap%3 in dst's set, gap/3 in a's
	zeroTail int // trailing all-zero rows of the token block (capacity padding)
	zeroPct  int // share of a's elements, and of its aligned 4-groups, forced to ±0
	special  int // 0: finite operands; 1/2: a NaN/Inf planted in a; 3/4: in b
}

func (c gemmCase) String() string {
	return fmt.Sprintf("seed=%d m=%d n=%d k=%d win=%d count=%d gap=%d zeroTail=%d zeroPct=%d special=%d",
		c.seed, c.m, c.n, c.k, c.win, c.count, c.gap, c.zeroTail, c.zeroPct, c.special)
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
	if rng.Intn(2) == 0 {
		return math.Copysign(0, -1)
	}
	return 0
}

// gemmOperand returns a (rows, cols) operand of standard normals with
// zeroPct% of its elements and of each row's aligned 4-groups set to ±0.
func gemmOperand(rng *xrand.RNG, rows, cols, zeroPct int) *Tensor {
	t := RandN(rng, 1, rows, cols)
	for i := range t.data {
		if rng.Intn(100) < zeroPct {
			t.data[i] = signedZero(rng)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c+4 <= cols; c += 4 {
			if rng.Intn(100) < zeroPct {
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
		v = math.Inf(rng.Intn(2)*2 - 1)
	}
	t.data[(lo+rng.Intn(hi-lo))*cols+rng.Intn(cols)] = v
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
	defer SetWorkers(0)
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
	const bs = 3
	a3 := gemmOperand(rng, bs*m, k, c.zeroPct).Reshape(bs, m, k)
	b3 := gemmOperand(rng, bs*k, n, 0).Reshape(bs, k, n)
	switch c.special {
	case 1, 2:
		plant(rng, ag, 0, m, c.special)
		plant(rng, a1, 0, k, c.special)
		plant(rng, a3.Reshape(bs*m, k), 0, bs*m, c.special)
	case 3, 4:
		plant(rng, b, 0, k, c.special)
		plant(rng, bT, blo, blo+n, c.special)
		plant(rng, b1, 0, k, c.special)
		plant(rng, b3.Reshape(bs*k, n), 0, bs*k, c.special)
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
	want3 := make([]float64, bs*m*n)
	for i := 0; i < bs; i++ {
		matmulRows(want3[i*m*n:(i+1)*m*n], a3.data[i*m*k:(i+1)*m*k], b3.data[i*k*n:(i+1)*k*n], 0, m, 0, n, k, n)
	}

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

		SetWorkers(w)
		gemmEqual(t, c, "BatchedMatMul", w, BatchedMatMul(a3, b3).data, want3)

		whole.Fill(nan)
		p.MatMulT1Into(whole, a1, b1)
		gemmEqual(t, c, "MatMulT1Into", w, whole.data, wantT1)
		sum := base.Clone()
		p.MatMulT1AddInto(sum, a1, b1)
		gemmEqual(t, c, "MatMulT1AddInto", w, sum.data, wantT1Add)

		d, intact = framed(dw, n, nan)
		p.MatMulT2RowsInto(d, dw, a, aw, bT, blo, blo+n)
		gemmEqual(t, c, "MatMulT2RowsInto", w, gathered(d, dw), wantT2)
		if !intact() {
			t.Fatalf("%v width %d: MatMulT2RowsInto wrote outside its window set", c, w)
		}
		whole.Fill(nan)
		p.MatMulT2Into(whole, ag, bT.Slice(blo, blo+n))
		gemmEqual(t, c, "MatMulT2Into", w, whole.data, wantT2)
		p.Close()
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
// column counts and depths a tile does and does not fit; then sets of
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
					zeroTail: i % 4, zeroPct: []int{0, 15, 60, 100}[i/4%4], special: max(i%13-8, 0),
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
// ep_compute's 10; a single window up to 80.
func FuzzGemmKernels(f *testing.F) {
	for _, s := range gemmFuzzSeeds {
		f.Add(s.seed, s.b[0], s.b[1], s.b[2], s.b[3], s.b[4], s.b[5], s.b[6], s.b[7], s.b[8])
	}
	f.Fuzz(func(t *testing.T, seed uint64, m, n, k, win, zeroTail, zeroPct, special, count, gap uint8) {
		checkGemmKernels(t, fuzzGemmCase(seed, [9]uint8{m, n, k, win, zeroTail, zeroPct, special, count, gap}))
	})
}

// gemmFuzzSeed is one FuzzGemmKernels input: the seed and the nine bytes
// m, n, k, win, zeroTail, zeroPct, special, count, gap.
type gemmFuzzSeed struct {
	seed uint64
	b    [9]uint8
}

var gemmFuzzSeeds = []gemmFuzzSeed{
	{1, [9]uint8{9, 17, 6, 1, 0, 0, 0, 0, 0}},
	{2, [9]uint8{40, 64, 3, 0, 12, 20, 0, 0, 0}},
	{3, [9]uint8{3, 7, 0, 2, 0, 100, 3, 0, 0}},
	{4, [9]uint8{2, 9, 8, 1, 1, 10, 0, 3, 5}},
}

// fuzzGemmCase maps FuzzGemmKernels' arguments to its case.
func fuzzGemmCase(seed uint64, b [9]uint8) gemmCase {
	m, n, k, win, zeroTail, zeroPct, special, count, gap := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8]
	c := gemmCase{
		seed: seed, m: int(m%80) + 1, n: int(n%80) + 1, k: int(k % 72), win: int(win % 4), count: int(count%5) + 1,
		gap: int(gap % 9), zeroTail: int(zeroTail % 16), zeroPct: int(zeroPct % 101), special: int(special % 5),
	}
	if c.count > 1 {
		c.m = int(m%10) + 1
	}
	return c
}
