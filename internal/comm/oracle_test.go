package comm

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// This file holds the reference collectives the windowed ones are held to:
// the allocating whole-buffer rings (each step staged through a copy, the
// textbook schedule) and the AlltoAll permutation by its definition. They
// share no code with the collectives under test.

// ringAllGather concatenates every rank's buffer on every rank:
// out[r] = data[0] ‖ data[1] ‖ … ‖ data[p-1], moved in p-1 ring steps.
func ringAllGather(data [][]float64, gpusPerNode int) ([][]float64, Stats, error) {
	var st Stats
	n, err := checkUniform(data)
	if err != nil {
		return nil, st, err
	}
	p := len(data)
	w := world{g: gpusPerNode}
	out := make([][]float64, p)
	for r := 0; r < p; r++ {
		out[r] = make([]float64, n*p)
		copy(out[r][r*n:(r+1)*n], data[r])
	}
	for s := 0; s < p-1; s++ {
		staged := make([][]float64, p)
		for r := 0; r < p; r++ {
			c := ((r-s)%p + p) % p
			staged[r] = append([]float64(nil), out[r][c*n:(c+1)*n]...)
		}
		for r := 0; r < p; r++ {
			dst := (r + 1) % p
			c := ((r-s)%p + p) % p
			copy(out[dst][c*n:(c+1)*n], staged[r])
			st.add(w.sameNode(r, dst), n)
		}
	}
	return out, st, nil
}

// ringReduceScatter sums the rank buffers elementwise and leaves segment r
// of the sum on rank r: out[r] = Σ_s data[s][r·n/p : (r+1)·n/p]. The input
// length must be divisible by p; the inputs are not modified.
func ringReduceScatter(data [][]float64, gpusPerNode int) ([][]float64, Stats, error) {
	var st Stats
	n, err := checkUniform(data)
	if err != nil {
		return nil, st, err
	}
	p := len(data)
	if n%p != 0 {
		return nil, st, fmt.Errorf("reduce-scatter length %d not divisible by %d ranks", n, p)
	}
	w := world{g: gpusPerNode}
	seg := n / p
	work := make([][]float64, p)
	for r := range data {
		work[r] = append([]float64(nil), data[r]...)
	}
	chunk := func(r, c int) []float64 { return work[r][c*seg : (c+1)*seg] }
	for s := 0; s < p-1; s++ {
		staged := make([][]float64, p)
		for r := 0; r < p; r++ {
			staged[r] = append([]float64(nil), chunk(r, ((r-s)%p+p)%p)...)
		}
		for r := 0; r < p; r++ {
			dst := (r + 1) % p
			dchunk := chunk(dst, ((r-s)%p+p)%p)
			for i, v := range staged[r] {
				dchunk[i] += v
			}
			st.add(w.sameNode(r, dst), seg)
		}
	}
	out := make([][]float64, p)
	for r := 0; r < p; r++ {
		// After p-1 steps rank r holds the reduced chunk (r+1) mod p; the
		// conventional output is segment r, so shift.
		c := (r + 1) % p
		out[c] = append([]float64(nil), chunk(r, c)...)
	}
	return out, st, nil
}

// alltoallOracle is the AlltoAll permutation itself: each rank's buffer is p
// equal blocks, and block d of source s lands as block s of destination d.
func alltoallOracle(data [][]float64) [][]float64 {
	p := len(data)
	b := len(data[0]) / p
	out := make([][]float64, p)
	for d := range out {
		out[d] = make([]float64, p*b)
		for s := 0; s < p; s++ {
			copy(out[d][s*b:(s+1)*b], data[s][d*b:(d+1)*b])
		}
	}
	return out
}

// wholeAlltoAll runs the named algorithm over whole blocks into a freshly
// allocated result: the one-row window of BlockDims{Rows: 1, Width: b}.
func wholeAlltoAll(algo A2AAlgo, data [][]float64, gpusPerNode int) ([][]float64, Stats, error) {
	if len(data) == 0 {
		return nil, Stats{}, fmt.Errorf("no ranks")
	}
	p, b := len(data), len(data[0])/len(data)
	out := make([][]float64, p)
	for d := range out {
		out[d] = make([]float64, len(data[0]))
	}
	st, err := AlltoAllRows(algo, data, out, gpusPerNode, BlockDims{Rows: 1, Width: b}, RowRange{Lo: 0, Hi: 1})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

func TestRingAllGather(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		p := 2 + int(r.Uint64()%7)
		n := 1 + int(r.Uint64()%20)
		data := randWorld(r, p, n)
		out, _, err := ringAllGather(data, 0)
		if err != nil {
			return false
		}
		for rr := 0; rr < p; rr++ {
			for s := 0; s < p; s++ {
				for j := 0; j < n; j++ {
					if out[rr][s*n+j] != data[s][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRingReduceScatter(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		p := 2 + int(r.Uint64()%7)
		seg := 1 + int(r.Uint64()%10)
		n := p * seg
		data := randWorld(r, p, n)
		orig := cloneWorld(data)
		out, _, err := ringReduceScatter(data, 0)
		if err != nil {
			return false
		}
		for rr := 0; rr < p; rr++ {
			for j := 0; j < seg; j++ {
				want := 0.0
				for s := 0; s < p; s++ {
					want += orig[s][rr*seg+j]
				}
				if math.Abs(out[rr][j]-want) > 1e-9 {
					return false
				}
			}
		}
		// Inputs must be preserved.
		return worldsEqual(data, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterRejectsIndivisible(t *testing.T) {
	if _, _, err := ringReduceScatter(randWorld(xrand.New(1), 3, 4), 0); err == nil {
		t.Fatal("expected error for 4 elements over 3 ranks")
	}
}

func TestAllGatherReduceScatterDuality(t *testing.T) {
	// ReduceScatter(AllGather(x)) over identical inputs recovers p·x.
	r := xrand.New(5)
	p, n := 4, 8
	data := randWorld(r, p, n)
	gathered, _, err := ringAllGather(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ringReduceScatter(gathered, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rr := 0; rr < p; rr++ {
		for j := 0; j < n; j++ {
			want := 0.0
			for s := 0; s < p; s++ {
				want += gathered[s][rr*n+j]
			}
			if math.Abs(out[rr][j]-want) > 1e-9 {
				t.Fatalf("duality broken at rank %d elem %d", rr, j)
			}
		}
	}
}

// indexedSource is one rank's token matrix and an indexed source block over
// it, with the tile the index stands for: row t is Scale[t]·x[Index[t]] (x's
// row itself without a scale) or +0 for −1.
func indexedSource(rng *xrand.RNG, x []float64, rows, width, tokens int, scaled bool) (Block, Block) {
	b := Block{Data: x, Width: width, Stride: width, Index: make([]int, rows)}
	if scaled {
		b.Scale = make([]float64, rows)
	}
	tile := make([]float64, rows*width)
	for t := range b.Index {
		i := int(rng.Uint64()%uint64(tokens+2)) - 2
		b.Index[t] = max(i, -1)
		if b.Index[t] < 0 {
			continue // the tile's +0
		}
		a := 1.0
		if scaled {
			a = rng.NormFloat64()
			if int(rng.Uint64()%6) == 0 {
				a = 0
			}
			b.Scale[t] = a
		}
		for j, v := range x[b.Index[t]*width:][:width] {
			if scaled {
				v = a * v
			}
			tile[t*width+j] = v
		}
	}
	return b, Tile(tile, width)
}

// TestIndexedSourcesMatchMaterialized: an AlltoAllBlocks (Direct, 1DH, 2DH)
// or AllGatherBlocks whose sources gather their rows through an index — with
// and without a per-row scale, −1 rows included — lands the bits, and counts
// the Stats, of the same call over the rows written out into tiles first, at
// every SplitRows chunking.
func TestIndexedSourcesMatchMaterialized(t *testing.T) {
	const p, k, rows, width, tokens, gpn = 4, 2, 7, 5, 9, 2
	rng := xrand.New(77)
	tokenRows := func() [][]float64 {
		xs := make([][]float64, p)
		for r := range xs {
			xs[r] = make([]float64, tokens*width)
			for i := range xs[r] {
				xs[r][i] = rng.NormFloat64()
				if int(rng.Uint64()%7) == 0 {
					xs[r][i] = math.Copysign(0, -1)
				}
			}
		}
		return xs
	}
	recv := func(n int) [][]Block {
		return denseBlocks(nanBuffers(p, n*rows*width), n, BlockDims{Rows: rows, Width: width})
	}
	same := func(label string, got, want [][]Block, gst, wst Stats) {
		t.Helper()
		if gst != wst {
			t.Fatalf("%s: stats %+v, want %+v", label, gst, wst)
		}
		for r := range want {
			for i := range want[r] {
				for j, v := range want[r][i].Data {
					if g := got[r][i].Data[j]; math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("%s: rank %d block %d element %d = %v, want %v", label, r, i, j, g, v)
					}
				}
			}
		}
	}
	for _, scaled := range []bool{false, true} {
		xs := tokenRows()
		// AlltoAll: p·k sources per rank, each its own index over the rank's rows.
		send, tiles := make([][]Block, p), make([][]Block, p)
		for r := range send {
			for i := 0; i < p*k; i++ {
				b, tile := indexedSource(rng, xs[r], rows, width, tokens, scaled)
				send[r], tiles[r] = append(send[r], b), append(tiles[r], tile)
			}
		}
		for _, algo := range []A2AAlgo{A2ADirect, A2A1DH, A2A2DH} {
			for chunks := 1; chunks <= rows; chunks++ {
				label := fmt.Sprintf("alltoall %s scaled=%v chunks=%d", algo, scaled, chunks)
				got, want := recv(p*k), recv(p*k)
				var gst, wst Stats
				for _, rr := range SplitRows(rows, chunks) {
					st, err := AlltoAllBlocks(algo, send, got, gpn, rr)
					if err != nil {
						t.Fatal(err)
					}
					gst.Merge(st)
					if st, err = AlltoAllBlocks(algo, tiles, want, gpn, rr); err != nil {
						t.Fatal(err)
					}
					wst.Merge(st)
				}
				same(label, got, want, gst, wst)
			}
		}
		// AllGather: k sources per member, landing in every member's p·k blocks.
		src, srcTiles := make([][]Block, p), make([][]Block, p)
		for r := range src {
			for i := 0; i < k; i++ {
				b, tile := indexedSource(rng, xs[r], rows, width, tokens, scaled)
				src[r], srcTiles[r] = append(src[r], b), append(srcTiles[r], tile)
			}
		}
		for chunks := 1; chunks <= rows; chunks++ {
			label := fmt.Sprintf("allgather scaled=%v chunks=%d", scaled, chunks)
			got, want := recv(p*k), recv(p*k)
			var gst, wst Stats
			for _, rr := range SplitRows(rows, chunks) {
				st, err := AllGatherBlocks(src, got, gpn, rr)
				if err != nil {
					t.Fatal(err)
				}
				gst.Merge(st)
				if st, err = AllGatherBlocks(srcTiles, want, gpn, rr); err != nil {
					t.Fatal(err)
				}
				wst.Merge(st)
			}
			same(label, got, want, gst, wst)
		}
	}
	// An index naming a row the data does not hold, or a destination that
	// gathers, is refused before anything moves.
	bad, _ := indexedSource(rng, make([]float64, tokens*width), rows, width, tokens, false)
	bad.Index[0] = tokens
	lists := func(b Block, n int) [][]Block {
		out := make([][]Block, p)
		for r := range out {
			for i := 0; i < n; i++ {
				out[r] = append(out[r], b)
			}
		}
		return out
	}
	if _, err := AlltoAllBlocks(A2ADirect, lists(bad, p*k), recv(p*k), gpn, RowRange{0, rows}); err == nil {
		t.Fatal("an index past the data must fail")
	}
	good, _ := indexedSource(rng, make([]float64, tokens*width), rows, width, tokens, false)
	if _, err := AlltoAllBlocks(A2ADirect, recv(p*k), lists(good, p*k), gpn, RowRange{0, rows}); err == nil {
		t.Fatal("an indexed destination must fail")
	}
	if _, err := ReduceScatterBlocks(lists(good, p*k), recv(k), gpn, RowRange{0, rows}); err == nil {
		t.Fatal("an indexed reduce-scatter contribution must fail")
	}
}
