package comm

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/tensor"
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
		p := []int{2, 3, 4, 8}[rng.Intn(4)]
		n := 1 + rng.Intn(300)
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
		for i := rng.Intn(6); i > 0; i-- {
			cuts = append(cuts, rng.Intn(n+1))
		}
		sort.Ints(cuts)
		got := cloneRanks(ref)
		var st Stats
		for _, i := range rng.Perm(len(cuts) - 1) {
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
// alike; its update, when non-nil, runs between the halves where each
// reduced clip lands, as the §5 sync did before the owner gather.
func untiledRing(data [][]float64, gpusPerNode int, rr RowRange, update func(rank, lo, hi int)) Stats {
	var st Stats
	p, n := len(data), len(data[0])
	if rr.Len() == 0 {
		return st
	}
	if p == 1 {
		if update != nil {
			update(0, rr.Lo, rr.Hi)
		}
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
	if update != nil {
		for r := 0; r < p; r++ {
			if lo, hi := clip(r + 1); lo < hi {
				update(r, lo, hi)
			}
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

// TestBroadcastRangeProperty: over random rank counts, buffer lengths and
// tilings broadcast in random order, each tile from its own random root,
// every rank ends with each tile's root bytes, nothing outside the tiles
// moves, and the Stats are BroadcastStats of each tile — p−1 messages of
// its length, whatever its width.
func TestBroadcastRangeProperty(t *testing.T) {
	rng := xrand.New(4242)
	for trial := 0; trial < 200; trial++ {
		p := []int{1, 2, 4, 8}[rng.Intn(4)]
		n := rng.Intn(200)
		g := []int{0, 1, 2, p}[rng.Intn(4)]
		tiles := SplitFlat(n, 1+rng.Intn(6))
		perm := rng.Perm(len(tiles))
		roots := make([]int, len(tiles))
		for c := range roots {
			roots[c] = rng.Intn(p)
		}
		ref := randRanks(uint64(trial), p, n)

		got := cloneRanks(ref)
		var gotSt, wantSt Stats
		for _, c := range perm {
			st, err := BroadcastRange(got, roots[c], g, tiles[c])
			if err != nil {
				t.Fatal(err)
			}
			gotSt.Merge(st)
			wantSt.Merge(BroadcastStats(p, roots[c], g, tiles[c].Len()))
		}
		if msgs, vol := gotSt.IntraMessages+gotSt.InterMessages, gotSt.IntraVolume+gotSt.InterVolume; gotSt != wantSt || vol != float64((p-1)*n) || (n > 0 && msgs != (p-1)*len(tiles)) {
			t.Fatalf("trial %d (p=%d n=%d g=%d): stats %+v, want %+v: %d messages, volume %v", trial, p, n, g, gotSt, wantSt, msgs, vol)
		}
		for c, rr := range tiles {
			for r := range got {
				for k := rr.Lo; k < rr.Hi; k++ {
					if math.Float64bits(got[r][k]) != math.Float64bits(ref[roots[c]][k]) {
						t.Fatalf("trial %d (p=%d n=%d tile %v root %d): rank %d elem %d = %v, root's %v",
							trial, p, n, rr, roots[c], r, k, got[r][k], ref[roots[c]][k])
					}
				}
			}
		}
	}
	buf := randRanks(1, 3, 10)
	want := cloneRanks(buf)
	if _, err := BroadcastRange(buf, 1, 0, RowRange{Lo: 3, Hi: 7}); err != nil {
		t.Fatal(err)
	}
	for r := range buf {
		for k, v := range buf[r] {
			if (k < 3 || k >= 7) && v != want[r][k] {
				t.Fatalf("rank %d elem %d outside the window was written", r, k)
			}
		}
	}
	for _, rr := range []RowRange{{-1, 2}, {4, 3}, {0, 11}} {
		if _, err := BroadcastRange(buf, 0, 0, rr); err == nil {
			t.Fatalf("range %v must fail", rr)
		}
	}
	if _, err := BroadcastRange(buf, 3, 0, RowRange{0, 1}); err == nil {
		t.Fatal("out-of-range root must fail")
	}
}

// TestRingAllReduceTiledMatchesUntiled: the tiled ring is the untiled one.
// Over random rank counts 1–5, buffers several tiles long and ranges that
// start and end inside a tile and straddle ring-chunk boundaries, it leaves
// the same bytes and reports exactly the same Stats, message counts
// included.
func TestRingAllReduceTiledMatchesUntiled(t *testing.T) {
	rng := xrand.New(733)
	for trial := 0; trial < 60; trial++ {
		p := 1 + rng.Intn(5)
		n := RingTile + rng.Intn(4*RingTile)
		g := []int{0, 1, 2, p}[rng.Intn(4)]
		lo := rng.Intn(n / 2)
		if trial%3 == 0 {
			lo = (lo / RingTile) * RingTile // some ranges start on a tile edge
		}
		rr := RowRange{Lo: lo, Hi: lo + rng.Intn(n-lo+1)}
		ref := randRanks(uint64(5000+trial), p, n)

		want, got := cloneRanks(ref), cloneRanks(ref)
		wantSt := untiledRing(want, g, rr, nil)
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

// BenchmarkBroadcastTile runs the §5 owner gather's inner loop over one tail
// at the benchmark's ep_params size (4 ranks of 2.63 M elements, each rank
// owning a quarter): per tile, the step's update on the owner — tensor.StepRow,
// which writes the replica and the live weight — then BroadcastRange of the
// tile, at tile widths around RingTile. The "untiled" row is the scalar ring
// with the same update between its halves, the sync the gather replaced
// before that ring was tiled and vectorized.
func BenchmarkBroadcastTile(b *testing.B) {
	const p, n = 4, 2_630_000
	data := randRanks(1, p, n)
	weights := randRanks(2, 1, n)[0]
	update := func(rank, lo, hi int) {
		tensor.StepRow(weights[lo:hi], data[rank][lo:hi], 1e-9)
	}
	b.Run("untiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			untiledRing(data, p, RowRange{Lo: 0, Hi: n}, update)
		}
	})
	owners := SplitFlat(n, p)
	for _, tile := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("tile=%d", tile), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r, span := range owners {
					for lo := span.Lo; lo < span.Hi; lo += tile {
						t := RowRange{Lo: lo, Hi: min(lo+tile, span.Hi)}
						update(r, t.Lo, t.Hi)
						if _, err := BroadcastRange(data, r, p, t); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
