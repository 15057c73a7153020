package comm

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// randomTiling cuts [0, rows) into contiguous non-empty ranges at random
// points and returns them in random order.
func randomTiling(rng *xrand.RNG, rows int) []RowRange {
	var out []RowRange
	for lo := 0; lo < rows; {
		hi := lo + 1 + int(rng.Uint64()%uint64(rows-lo))
		out = append(out, RowRange{Lo: lo, Hi: hi})
		lo = hi
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func nanBuffers(p, n int) [][]float64 {
	out := make([][]float64, p)
	for r := range out {
		out[r] = make([]float64, n)
		for i := range out[r] {
			out[r][i] = math.NaN()
		}
	}
	return out
}

// denseBlocks lists every rank's dense buffer of n consecutive dims tiles as
// blocks — the block-list spelling of a dense endpoint.
func denseBlocks(dense [][]float64, n int, dims BlockDims) [][]Block {
	out := make([][]Block, len(dense))
	for r, buf := range dense {
		for i := 0; i < n; i++ {
			out[r] = append(out[r], Tile(buf[i*dims.Elems():(i+1)*dims.Elems()], dims.Width))
		}
	}
	return out
}

// carved is a Block cut from its own NaN-filled arena at a random offset —
// contiguous, or a column band of a wider buffer — so a test sees every
// element a collective wrote, inside the block and around it.
type carved struct {
	Block
	arena      []float64
	off, nrows int
}

func carve(rng *xrand.RNG, rows, width int) carved {
	stride := width
	if int(rng.Uint64()%2) == 0 {
		stride += 1 + int(rng.Uint64()%3)
	}
	off := int(rng.Uint64() % 3)
	span := 0
	if width > 0 {
		span = (rows-1)*stride + width
	}
	arena := nanBuffers(1, off+span+int(rng.Uint64()%3))[0]
	return carved{Block{Data: arena[off : off+span], Width: width, Stride: stride}, arena, off, rows}
}

// fill writes fresh values into every element of the block, a few of them
// signed zeros, and returns the packed (rows × width) copy.
func (c carved) fill(rng *xrand.RNG) []float64 {
	packed := make([]float64, 0, c.nrows*c.Width)
	for t := 0; t < c.nrows; t++ {
		for col := 0; col < c.Width; col++ {
			v := rng.NormFloat64()
			switch int(rng.Uint64() % 8) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
			c.Data[t*c.Stride+col] = v
			packed = append(packed, v)
		}
	}
	return packed
}

// check requires the moved rows of the block to hold want and the others
// rest (both packed rows × width; a nil rest is a block that started out
// NaN), bit for bit, and every element of the arena outside the block's rows
// and columns to be NaN still.
func (c carved) check(t *testing.T, label string, moved []bool, want, rest []float64) {
	t.Helper()
	for i, v := range c.arena {
		row, col := -1, -1
		if rel := i - c.off; rel >= 0 && c.Width > 0 && rel/c.Stride < c.nrows && rel%c.Stride < c.Width {
			row, col = rel/c.Stride, rel%c.Stride
		}
		w := math.NaN()
		switch {
		case row >= 0 && moved[row]:
			w = want[row*c.Width+col]
		case row >= 0 && rest != nil:
			w = rest[row*c.Width+col]
		}
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			t.Fatalf("%s: arena offset %d (row %d col %d, moved rows %v) = %v (%#x), want %v (%#x)",
				label, i, row, col, moved, v, math.Float64bits(v), w, math.Float64bits(w))
		}
	}
}

func blocksOf(cs []carved) []Block {
	out := make([]Block, len(cs))
	for i, c := range cs {
		out[i] = c.Block
	}
	return out
}

func bitsOf(cs [][]carved) [][]uint64 {
	var out [][]uint64
	for _, list := range cs {
		for _, c := range list {
			b := make([]uint64, len(c.arena))
			for i, v := range c.arena {
				b[i] = math.Float64bits(v)
			}
			out = append(out, b)
		}
	}
	return out
}

func sameBits(t *testing.T, label string, was, now [][]uint64) {
	t.Helper()
	for i := range was {
		for j := range was[i] {
			if was[i][j] != now[i][j] {
				t.Fatalf("%s: source arena %d offset %d was modified", label, i, j)
			}
		}
	}
}

// members picks p of n ranks in random order: the members of one group call.
func members(rng *xrand.RNG, n, p int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:p]
}

// TestAlltoAllWindowProperty: for random rank counts, node shapes, block
// shapes and tilings of the rows taken in random order, the windowed
// AlltoAll — over dense endpoints and over block lists of strided and
// contiguous blocks — reproduces the monolithic collective byte for byte,
// leaves every element outside the windows moved so far untouched, and sums
// to the monolithic traffic.
func TestAlltoAllWindowProperty(t *testing.T) {
	rng := xrand.New(20240913)
	for tc := 0; tc < 200; tc++ {
		p := []int{2, 4, 8}[int(rng.Uint64()%3)]
		var divs []int
		for g := 1; g <= p; g++ {
			if p%g == 0 {
				divs = append(divs, g)
			}
		}
		g := divs[int(rng.Uint64()%uint64(len(divs)))]
		k := 1 + int(rng.Uint64()%3)
		tw := 1 + int(rng.Uint64()%4)
		dims := BlockDims{Rows: 1 + int(rng.Uint64()%9), Width: k * tw}
		b := dims.Elems()
		data := randomBuffers(uint64(1000+tc), p, dims)
		tiling := randomTiling(rng, dims.Rows)
		for _, algo := range []A2AAlgo{A2ADirect, A2A1DH, A2A2DH} {
			want, wantSt, err := wholeAlltoAll(algo, data, g)
			if err != nil {
				t.Fatalf("case %d %s: monolithic: %v", tc, algo, err)
			}
			out := nanBuffers(p, p*b)
			// The block-list twin: column band j of every dense block is its
			// own block, wherever it was carved.
			send, recv := make([][]carved, p), make([][]carved, p)
			band := func(dense []float64, d, j int) []float64 {
				var packed []float64
				for row := 0; row < dims.Rows; row++ {
					off := d*b + row*dims.Width + j*tw
					packed = append(packed, dense[off:off+tw]...)
				}
				return packed
			}
			for r := 0; r < p; r++ {
				for i := 0; i < p*k; i++ {
					s := carve(rng, dims.Rows, tw)
					for idx, v := range band(data[r], i/k, i%k) {
						s.Data[idx/tw*s.Stride+idx%tw] = v
					}
					send[r] = append(send[r], s)
					recv[r] = append(recv[r], carve(rng, dims.Rows, tw))
				}
			}
			sendB, recvB := make([][]Block, p), make([][]Block, p)
			for r := 0; r < p; r++ {
				sendB[r], recvB[r] = blocksOf(send[r]), blocksOf(recv[r])
			}
			was := bitsOf(send)
			moved := make([]bool, dims.Rows)
			var sum Stats
			for _, rr := range tiling {
				st, err := AlltoAllRows(algo, data, out, g, dims, rr)
				if err != nil {
					t.Fatalf("case %d %s rows %v: %v", tc, algo, rr, err)
				}
				bst, err := AlltoAllBlocks(algo, sendB, recvB, g, rr)
				if err != nil {
					t.Fatalf("case %d %s blocks %v: %v", tc, algo, rr, err)
				}
				if bst != st {
					t.Fatalf("case %d %s rows %v: block-list stats %+v, dense %+v", tc, algo, rr, bst, st)
				}
				sum.Merge(st)
				for r := rr.Lo; r < rr.Hi; r++ {
					moved[r] = true
				}
				for d := 0; d < p; d++ {
					for i, v := range out[d] {
						if row := i % b / dims.Width; !moved[row] {
							if !math.IsNaN(v) {
								t.Fatalf("case %d %s after %v: rank %d offset %d outside the windows was written (%v)", tc, algo, rr, d, i, v)
							}
						} else if v != want[d][i] {
							t.Fatalf("case %d %s after %v: rank %d offset %d = %v, want %v", tc, algo, rr, d, i, v, want[d][i])
						}
					}
					for i, c := range recv[d] {
						c.check(t, "alltoall blocks", moved, band(want[d], i/k, i%k), nil)
					}
				}
			}
			sameBits(t, "alltoall blocks", was, bitsOf(send))
			// Every window repeats the monolithic message pattern with its
			// share of the volume.
			wantSt.IntraMessages *= len(tiling)
			wantSt.InterMessages *= len(tiling)
			if sum != wantSt {
				t.Fatalf("case %d %s p=%d g=%d %v over %v: summed stats %+v, want %+v", tc, algo, p, g, dims, tiling, sum, wantSt)
			}
		}
	}
}

// ringCase is one random AllGather/ReduceScatter problem over carved blocks:
// p members drawn in random order from a larger rank set, k blocks each on
// the narrow side and p·k on the wide side, rows tiled at random.
type ringCase struct {
	p, k, g, rows int
	order         []int      // member → rank of the larger set
	narrow, wide  [][]carved // by member
	tiling        []RowRange
}

// newRingCase draws a case; width gives the width of narrow block j of
// member c (and of every wide block pairing with it).
func newRingCase(rng *xrand.RNG, width func(c, j int) int) *ringCase {
	rc := &ringCase{p: []int{1, 2, 4, 8}[int(rng.Uint64()%4)], k: 1 + int(rng.Uint64()%3), rows: 1 + int(rng.Uint64()%7)}
	for g := 1 + int(rng.Uint64()%uint64(rc.p)); ; g-- {
		if rc.p%g == 0 {
			rc.g = g
			break
		}
	}
	rc.order = members(rng, rc.p+3, rc.p)
	rc.tiling = randomTiling(rng, rc.rows)
	// Ranks carve in rank order, members are listed in group order: which
	// list a block sits in is all a collective knows of its rank.
	byRank := make(map[int]int, rc.p)
	for m, r := range rc.order {
		byRank[r] = m
	}
	rc.narrow, rc.wide = make([][]carved, rc.p), make([][]carved, rc.p)
	for r := 0; r < rc.p+3; r++ {
		m, ok := byRank[r]
		if !ok {
			continue
		}
		for j := 0; j < rc.k; j++ {
			rc.narrow[m] = append(rc.narrow[m], carve(rng, rc.rows, width(m, j)))
		}
		for i := 0; i < rc.p*rc.k; i++ {
			rc.wide[m] = append(rc.wide[m], carve(rng, rc.rows, width(i/rc.k, i%rc.k)))
		}
	}
	return rc
}

func (rc *ringCase) lists(cs [][]carved) [][]Block {
	out := make([][]Block, rc.p)
	for m := range cs {
		out[m] = blocksOf(cs[m])
	}
	return out
}

// windows runs call over the case's tiling, summing the Stats, and after
// every window hands check the rows moved so far.
func (rc *ringCase) windows(t *testing.T, call func(rr RowRange) (Stats, error), check func(moved []bool)) Stats {
	t.Helper()
	var sum Stats
	moved := make([]bool, rc.rows)
	for _, rr := range rc.tiling {
		st, err := call(rr)
		if err != nil {
			t.Fatalf("window %v: %v", rr, err)
		}
		sum.Merge(st)
		for r := rr.Lo; r < rr.Hi; r++ {
			moved[r] = true
		}
		check(moved)
	}
	return sum
}

// TestRingBlocksWindowProperty: over 200 random cases the block-endpoint
// AllGather and ReduceScatter reproduce ringAllGather and ringReduceScatter
// on packed copies of the blocks byte for byte, window by window, with the
// monolithic Stats; nothing outside the moved windows and the blocks' own
// columns is written; sources are never modified.
func TestRingBlocksWindowProperty(t *testing.T) {
	rng := xrand.New(20261002)
	for tc := 0; tc < 200; tc++ {
		widths := []int{1 + int(rng.Uint64()%4), 1 + int(rng.Uint64()%4), 1 + int(rng.Uint64()%4)}
		uniform := func(_, j int) int { return widths[j] }

		// AllGather: the packed copy of a member is its k blocks end to end.
		rc := newRingCase(rng, uniform)
		packed := make([][]float64, rc.p)
		for m := range rc.narrow {
			for _, c := range rc.narrow[m] {
				packed[m] = append(packed[m], c.fill(rng)...)
			}
		}
		want, wantSt, err := ringAllGather(packed, rc.g)
		if err != nil {
			t.Fatal(err)
		}
		was := bitsOf(rc.narrow)
		src, dst := rc.lists(rc.narrow), rc.lists(rc.wide)
		sum := rc.windows(t, func(rr RowRange) (Stats, error) { return AllGatherBlocks(src, dst, rc.g, rr) }, func(moved []bool) {
			for d := range rc.wide {
				off := 0
				for _, c := range rc.wide[d] {
					c.check(t, "allgather", moved, want[d][off:off+rc.rows*c.Width], nil)
					off += rc.rows * c.Width
				}
			}
		})
		sameBits(t, "allgather", was, bitsOf(rc.narrow))
		wantSt.IntraMessages *= len(rc.tiling)
		wantSt.InterMessages *= len(rc.tiling)
		if sum != wantSt {
			t.Fatalf("case %d allgather p=%d k=%d g=%d: summed stats %+v, want %+v", tc, rc.p, rc.k, rc.g, sum, wantSt)
		}

		// ReduceScatter: the packed copy of a member is its p segments of k
		// blocks end to end. Some contributions are absent — explicit zeros
		// in the packed copy — and some destinations are their own member's
		// contribution, reduced in place: inPlace holds what those started as.
		rc = newRingCase(rng, uniform)
		packed = make([][]float64, rc.p)
		contrib := rc.lists(rc.wide)
		inPlace := make([][][]float64, rc.p)
		var others [][]carved // every contribution no destination aliases
		for m := range rc.wide {
			inPlace[m] = make([][]float64, rc.k)
			for i, c := range rc.wide[m] {
				vals := c.fill(rng)
				if int(rng.Uint64()%3) == 0 {
					contrib[m][i] = Block{}
					vals = make([]float64, len(vals))
				} else if i/rc.k == m && int(rng.Uint64()%2) == 0 {
					rc.narrow[m][i%rc.k], inPlace[m][i%rc.k] = c, vals
				} else {
					others = append(others, []carved{c})
				}
				packed[m] = append(packed[m], vals...)
			}
		}
		want, wantSt, err = ringReduceScatter(packed, rc.g)
		if err != nil {
			t.Fatal(err)
		}
		was = bitsOf(others)
		dst = rc.lists(rc.narrow)
		sum = rc.windows(t, func(rr RowRange) (Stats, error) { return ReduceScatterBlocks(contrib, dst, rc.g, rr) }, func(moved []bool) {
			for c := range rc.narrow {
				off := 0
				for j, blk := range rc.narrow[c] {
					blk.check(t, "reduce-scatter", moved, want[c][off:off+rc.rows*blk.Width], inPlace[c][j])
					off += rc.rows * blk.Width
				}
			}
		})
		sameBits(t, "reduce-scatter", was, bitsOf(others))
		wantSt.IntraMessages *= len(rc.tiling)
		wantSt.InterMessages *= len(rc.tiling)
		if sum != wantSt {
			t.Fatalf("case %d reduce-scatter p=%d k=%d g=%d: summed stats %+v, want %+v", tc, rc.p, rc.k, rc.g, sum, wantSt)
		}
	}
}

// TestAllGatherBlocksUnevenWidths: sources of different widths — zero
// included, the short trailing column shard of a width the group does not
// divide — land in destination blocks equal to them, and the Stats are the
// elements the ring moved: every source's window to the p−1 other members.
func TestAllGatherBlocksUnevenWidths(t *testing.T) {
	rng := xrand.New(77)
	for tc := 0; tc < 200; tc++ {
		var widths [8][3]int
		for c := range widths {
			for j := range widths[c] {
				widths[c][j] = int(rng.Uint64() % 5)
			}
		}
		rc := newRingCase(rng, func(c, j int) int { return widths[c][j] })
		srcVals := make([][][]float64, rc.p)
		elems := 0
		for m := range rc.narrow {
			for _, c := range rc.narrow[m] {
				srcVals[m] = append(srcVals[m], c.fill(rng))
				elems += c.Width
			}
		}
		was := bitsOf(rc.narrow)
		src, dst := rc.lists(rc.narrow), rc.lists(rc.wide)
		sum := rc.windows(t, func(rr RowRange) (Stats, error) { return AllGatherBlocks(src, dst, rc.g, rr) }, func(moved []bool) {
			for d := range rc.wide {
				for i, c := range rc.wide[d] {
					c.check(t, "uneven allgather", moved, srcVals[i/rc.k][i%rc.k], nil)
				}
			}
		})
		sameBits(t, "uneven allgather", was, bitsOf(rc.narrow))
		if got, want := sum.IntraVolume+sum.InterVolume, float64((rc.p-1)*rc.rows*elems); got != want {
			t.Fatalf("case %d p=%d: volume %v, want the %v elements moved", tc, rc.p, got, want)
		}
		if got, want := sum.IntraMessages+sum.InterMessages, len(rc.tiling)*rc.p*(rc.p-1); got != want {
			t.Fatalf("case %d p=%d: %d messages, want %d", tc, rc.p, got, want)
		}
	}
}

// blockFixture is one small problem per block-endpoint collective over
// carved blocks, rows [1, 3) of 4: what the allocation test runs.
func blockFixture(rng *xrand.RNG) map[string]func() error {
	const p, k, rows, width = 4, 2, 4, 3
	rr := RowRange{Lo: 1, Hi: 3}
	side := func(n int, fill bool) [][]Block {
		lists := make([][]Block, p)
		for r := range lists {
			cs := make([]carved, n)
			for i := range cs {
				cs[i] = carve(rng, rows, width)
				if fill {
					cs[i].fill(rng)
				}
			}
			lists[r] = blocksOf(cs)
		}
		return lists
	}
	send, recv := side(p*k, true), side(p*k, false)
	src, gathered := side(k, true), side(p*k, false)
	contrib, reduced := side(p*k, true), side(k, false)
	contrib[1][3] = Block{}
	return map[string]func() error{
		"alltoall": func() error {
			_, err := AlltoAllBlocks(A2ADirect, send, recv, 2, rr)
			return err
		},
		"allgather": func() error {
			_, err := AllGatherBlocks(src, gathered, 2, rr)
			return err
		},
		"reduce-scatter": func() error {
			_, err := ReduceScatterBlocks(contrib, reduced, 2, rr)
			return err
		},
	}
}

// TestAlltoAllRowsDirectAllocFree: a Direct window moves straight between
// the caller's buffers — no staging, no allocation.
func TestAlltoAllRowsDirectAllocFree(t *testing.T) {
	dims := BlockDims{Rows: 12, Width: 16}
	data := randomBuffers(5, 4, dims)
	out := nanBuffers(4, 4*dims.Elems())
	rr := RowRange{Lo: 3, Hi: 9}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := AlltoAllRows(A2ADirect, data, out, 2, dims, rr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a Direct window call allocates %v times, want 0", allocs)
	}
}

// TestBlockCollectivesAllocFree: a window of any block-endpoint collective
// moves straight between the caller's blocks — no staging, no allocation.
func TestBlockCollectivesAllocFree(t *testing.T) {
	for name, call := range blockFixture(xrand.New(5)) {
		allocs := testing.AllocsPerRun(20, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("a %s window allocates %v times, want 0", name, allocs)
		}
	}
}
