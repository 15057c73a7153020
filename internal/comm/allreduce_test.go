package comm

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/xrand"
)

func randRanks(seed uint64, p, n int) [][]float64 {
	rng := xrand.New(seed)
	out := make([][]float64, p)
	for r := range out {
		out[r] = make([]float64, n)
		for i := range out[r] {
			out[r][i] = rng.NormFloat64()
		}
	}
	return out
}

func cloneRanks(data [][]float64) [][]float64 {
	out := make([][]float64, len(data))
	for r := range data {
		out[r] = append([]float64(nil), data[r]...)
	}
	return out
}

// reduceTiles reduces the SplitFlat tiling of the buffers into chunks ranges,
// in order, one restricted ring per range — the way §5's slices run.
func reduceTiles(data [][]float64, gpusPerNode, chunks int) (Stats, error) {
	var st Stats
	for _, rr := range SplitFlat(len(data[0]), chunks) {
		cst, err := RingAllReduceChunk(data, gpusPerNode, rr)
		if err != nil {
			return st, err
		}
		st.Merge(cst)
	}
	return st, nil
}

// TestChunkedRingAllReduceBitIdentical: reducing any tiling of the buffer
// chunk by chunk must reproduce the monolithic RingAllReduce byte for
// byte — the §5 slicing must never change a gradient bit.
func TestChunkedRingAllReduceBitIdentical(t *testing.T) {
	for _, p := range []int{2, 4, 5} {
		for _, n := range []int{1, 7, 64, 129} {
			ref := randRanks(uint64(100*p+n), p, n)
			want := cloneRanks(ref)
			wantSt, err := RingAllReduce(want, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunks := range []int{1, 2, 3, 5, 8, n + 3} {
				got := cloneRanks(ref)
				st, err := reduceTiles(got, 2, chunks)
				if err != nil {
					t.Fatal(err)
				}
				for r := range got {
					for i := range got[r] {
						if got[r][i] != want[r][i] {
							t.Fatalf("p=%d n=%d chunks=%d: rank %d elem %d: %v != %v",
								p, n, chunks, r, i, got[r][i], want[r][i])
						}
					}
				}
				if st.IntraVolume+st.InterVolume != wantSt.IntraVolume+wantSt.InterVolume {
					t.Fatalf("p=%d n=%d chunks=%d: chunked volume %v, monolithic %v",
						p, n, chunks, st.IntraVolume+st.InterVolume, wantSt.IntraVolume+wantSt.InterVolume)
				}
			}
		}
	}
}

// TestRingAllReduceChunkProperty: for random rank counts, buffer lengths the
// rank count does not divide and random tilings reduced in random order,
// every rank ends with exactly the ring's sum of each element — ring chunk
// c = the chunk of the full buffer the element lies in, accumulated from
// rank c around the ring in rank order — and with exactly the ring's
// traffic. The reference shares no code with the collective: it is the
// definition the in-place, staging-free schedule must still meet.
func TestRingAllReduceChunkProperty(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 200; trial++ {
		p := []int{2, 3, 4, 8}[int(rng.Uint64()%4)]
		n := 1 + int(rng.Uint64()%300)
		if n%p == 0 {
			n++
		}
		ref := randRanks(uint64(1000+trial), p, n)
		want := make([]float64, n)
		for c := 0; c < p; c++ {
			for k := c * n / p; k < (c+1)*n/p; k++ {
				acc := ref[c][k]
				for j := 1; j < p; j++ {
					acc = ref[(c+j)%p][k] + acc
				}
				want[k] = acc
			}
		}
		// A random tiling of [0, n): random cut points, empty tiles allowed.
		cuts := []int{0, n}
		for i := int(rng.Uint64() % 6); i > 0; i-- {
			cuts = append(cuts, int(rng.Uint64()%uint64(n+1)))
		}
		sort.Ints(cuts)
		got := cloneRanks(ref)
		var st Stats
		for _, i := range rand.New(rng).Perm(len(cuts) - 1) {
			cst, err := RingAllReduceChunk(got, 2, RowRange{Lo: cuts[i], Hi: cuts[i+1]})
			if err != nil {
				t.Fatal(err)
			}
			st.Merge(cst)
		}
		for r := range got {
			for k := range got[r] {
				if got[r][k] != want[k] {
					t.Fatalf("trial %d (p=%d n=%d cuts=%v): rank %d elem %d = %v, ring sum %v",
						trial, p, n, cuts, r, k, got[r][k], want[k])
				}
			}
		}
		// Every element crosses p−1 links in each phase.
		if vol := st.IntraVolume + st.InterVolume; vol != float64(2*(p-1)*n) {
			t.Fatalf("trial %d (p=%d n=%d cuts=%v): moved %v elements, ring moves %d", trial, p, n, cuts, vol, 2*(p-1)*n)
		}
	}
}

// TestRingAllReduceChunkTilingOrder: disjoint ranges may be reduced in any
// order (the overlapped schedule interleaves slices of different layers)
// and still tile to the monolithic result.
func TestRingAllReduceChunkTilingOrder(t *testing.T) {
	const p, n = 4, 101
	ref := randRanks(7, p, n)
	want := cloneRanks(ref)
	if _, err := RingAllReduce(want, 0); err != nil {
		t.Fatal(err)
	}
	got := cloneRanks(ref)
	ranges := SplitFlat(n, 5)
	// Reverse order, then a middle-out shuffle.
	order := []int{4, 2, 0, 3, 1}
	for _, c := range order {
		if _, err := RingAllReduceChunk(got, 0, ranges[c]); err != nil {
			t.Fatal(err)
		}
	}
	for r := range got {
		for i := range got[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("rank %d elem %d: %v != %v", r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestRingAllReduceChunkExactWithDisjointPartials: when every element has
// exactly one non-zero contributor (the executable gradient-sync layout:
// expert grads live on their owner rank, dense shards are disjoint), the
// ring sum is exact — adding zeros never rounds — and every rank ends with
// identical bytes. This is the property World.Step's parameter-equality
// assertion rests on.
func TestRingAllReduceChunkExactWithDisjointPartials(t *testing.T) {
	const p, n = 4, 57
	truth := make([]float64, n)
	rng := xrand.New(9)
	data := make([][]float64, p)
	for r := range data {
		data[r] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		truth[i] = rng.NormFloat64()
		data[i%p][i] = truth[i]
	}
	if _, err := reduceTiles(data, 2, 3); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		for i := 0; i < n; i++ {
			if data[r][i] != truth[i] {
				t.Fatalf("rank %d elem %d: %v != %v", r, i, data[r][i], truth[i])
			}
		}
	}
}

// TestRingAllReduceChunkErrors covers the validation paths.
func TestRingAllReduceChunkErrors(t *testing.T) {
	ok := [][]float64{{1, 2}, {3, 4}}
	if _, err := RingAllReduceChunk([][]float64{{1}, {2, 3}}, 0, RowRange{0, 1}); err == nil {
		t.Fatal("ragged buffers must fail")
	}
	if _, err := RingAllReduceChunk(ok, 0, RowRange{-1, 1}); err == nil {
		t.Fatal("negative range must fail")
	}
	if _, err := RingAllReduceChunk(ok, 0, RowRange{0, 3}); err == nil {
		t.Fatal("range past the buffer must fail")
	}
	// Empty range and single rank are no-ops.
	if st, err := RingAllReduceChunk(ok, 0, RowRange{1, 1}); err != nil || st.InterVolume != 0 {
		t.Fatalf("empty range: %v %+v", err, st)
	}
	one := [][]float64{{5, math.Pi}}
	if _, err := RingAllReduceChunk(one, 0, RowRange{0, 2}); err != nil {
		t.Fatal(err)
	}
	if one[0][0] != 5 || one[0][1] != math.Pi {
		t.Fatal("single-rank allreduce must leave the buffer untouched")
	}
}

// TestSplitFlat pins the flat-slicing contract gradsync relies on: ranges
// tile [0, n), are non-empty, and cap at n.
func TestSplitFlat(t *testing.T) {
	for _, tc := range []struct{ n, chunks, want int }{
		{10, 3, 3}, {10, 1, 1}, {3, 8, 3}, {1, 1, 1},
	} {
		got := SplitFlat(tc.n, tc.chunks)
		if len(got) != tc.want {
			t.Fatalf("SplitFlat(%d,%d) = %d ranges, want %d", tc.n, tc.chunks, len(got), tc.want)
		}
		next := 0
		for _, rr := range got {
			if rr.Lo != next || rr.Len() <= 0 {
				t.Fatalf("SplitFlat(%d,%d) = %v does not tile", tc.n, tc.chunks, got)
			}
			next = rr.Hi
		}
		if next != tc.n {
			t.Fatalf("SplitFlat(%d,%d) ends at %d", tc.n, tc.chunks, next)
		}
	}
}

// untiledRing is the ring as it was before tiling: each ring step walks the
// whole range. It is the oracle the tiled ring is held to, bytes and Stats
// alike.
func untiledRing(data [][]float64, gpusPerNode int, rr RowRange) Stats {
	var st Stats
	p, n := len(data), len(data[0])
	if rr.Len() == 0 || p == 1 {
		return st
	}
	w := world{g: gpusPerNode}
	clip := func(c int) (int, int) {
		c = (c%p + p) % p
		return max(c*n/p, rr.Lo), min((c+1)*n/p, rr.Hi)
	}
	for s := 0; s < p-1; s++ {
		for r := 0; r < p; r++ {
			lo, hi := clip(r - s)
			if lo >= hi {
				continue
			}
			next := (r + 1) % p
			src, dchunk := data[r][lo:hi], data[next][lo:hi]
			for i, v := range src {
				dchunk[i] += v
			}
			st.add(w.sameNode(r, next), hi-lo)
		}
	}
	for s := 0; s < p-1; s++ {
		for r := 0; r < p; r++ {
			if lo, hi := clip(r + 1 - s); lo < hi {
				next := (r + 1) % p
				copy(data[next][lo:hi], data[r][lo:hi])
				st.add(w.sameNode(r, next), hi-lo)
			}
		}
	}
	return st
}

// TestRingAllReduceTiledMatchesUntiled: the tiled ring is the untiled one.
// Over random rank counts 1–5, buffers several tiles long and ranges that
// start and end inside a tile and straddle ring-chunk boundaries, it leaves
// the same bytes and reports exactly the same Stats, message counts
// included.
func TestRingAllReduceTiledMatchesUntiled(t *testing.T) {
	rng := xrand.New(733)
	for trial := 0; trial < 60; trial++ {
		p := 1 + int(rng.Uint64()%5)
		n := RingTile + int(rng.Uint64()%uint64(4*RingTile))
		g := []int{0, 1, 2, p}[int(rng.Uint64()%4)]
		lo := int(rng.Uint64() % uint64(n/2))
		if trial%3 == 0 {
			lo = (lo / RingTile) * RingTile // some ranges start on a tile edge
		}
		rr := RowRange{Lo: lo, Hi: lo + int(rng.Uint64()%uint64(n-lo+1))}
		ref := randRanks(uint64(5000+trial), p, n)

		want, got := cloneRanks(ref), cloneRanks(ref)
		wantSt := untiledRing(want, g, rr)
		gotSt, err := RingAllReduceChunk(got, g, rr)
		if err != nil {
			t.Fatal(err)
		}
		if gotSt != wantSt {
			t.Fatalf("trial %d (p=%d n=%d g=%d rr=%v): stats %+v, untiled %+v", trial, p, n, g, rr, gotSt, wantSt)
		}
		if st := ringAllReduceStats(p, n, g, rr); st != wantSt {
			t.Fatalf("trial %d (p=%d n=%d g=%d rr=%v): ringAllReduceStats %+v, untiled %+v", trial, p, n, g, rr, st, wantSt)
		}
		for r := range got {
			for k := range got[r] {
				if math.Float64bits(got[r][k]) != math.Float64bits(want[r][k]) {
					t.Fatalf("trial %d (p=%d n=%d rr=%v): rank %d elem %d = %v, untiled %v", trial, p, n, rr, r, k, got[r][k], want[r][k])
				}
			}
		}
	}
}
