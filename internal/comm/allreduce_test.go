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

// untiledRing is RingAllReduceUpdate as it was before tiling: each ring
// step walks the whole range. It is the oracle the tiled ring is held to,
// bytes, Stats and update calls alike.
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

// TestRingAllReduceUpdateProperty: over random rank counts, buffer lengths
// (shorter than the ring included) and
// tilings reduced in random order, reduce-scatter → update → all-gather
// leaves every rank with the bytes of the untiled ring with no update
// followed by the same update applied on every rank, reports the same
// Stats, and hands the update every element of [0, n) exactly once; with a
// nil update it is the untiled ring.
func TestRingAllReduceUpdateProperty(t *testing.T) {
	const lr = 0.37
	rng := xrand.New(4242)
	for trial := 0; trial < 200; trial++ {
		p := []int{1, 2, 4, 8}[rng.Intn(4)]
		n := rng.Intn(200)
		g := []int{0, 1, 2, p}[rng.Intn(4)]
		tiles := SplitFlat(n, 1+rng.Intn(6))
		perm := rng.Perm(len(tiles))
		ref := randRanks(uint64(trial), p, n)
		weights := randRanks(uint64(1000+trial), 1, n)[0]

		want, plain := cloneRanks(ref), cloneRanks(ref)
		var wantSt Stats
		for _, c := range perm {
			wantSt.Merge(untiledRing(want, g, tiles[c], nil))
		}
		for r := range want {
			if p == 1 {
				break // one rank: nothing was summed, the update below still applies
			}
			for k := range want[r] {
				if want[r][k] != want[0][k] {
					t.Fatalf("trial %d: serial ring left rank %d elem %d unsynchronized", trial, r, k)
				}
			}
		}
		for r := range want {
			for k, v := range want[r] {
				want[r][k] = weights[k] - lr*v
			}
		}

		got := cloneRanks(ref)
		seen := make([]int, n)
		var gotSt, plainSt Stats
		for _, c := range perm {
			st, err := RingAllReduceUpdate(got, g, tiles[c], func(rank, lo, hi int) {
				for k := lo; k < hi; k++ {
					seen[k]++ // clips of one call are disjoint: no two goroutines share k
					got[rank][k] = weights[k] - lr*got[rank][k]
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			gotSt.Merge(st)
			st, err = RingAllReduceChunk(plain, g, tiles[c])
			if err != nil {
				t.Fatal(err)
			}
			plainSt.Merge(st)
		}
		if gotSt != wantSt || plainSt != wantSt {
			t.Fatalf("trial %d (p=%d n=%d g=%d): stats %+v (update) %+v (nil), serial ring %+v", trial, p, n, g, gotSt, plainSt, wantSt)
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("trial %d (p=%d n=%d): update saw element %d %d times", trial, p, n, k, c)
			}
		}
		for r := range got {
			for k := range got[r] {
				if math.Float64bits(got[r][k]) != math.Float64bits(want[r][k]) {
					t.Fatalf("trial %d (p=%d n=%d tiles=%d): rank %d elem %d = %v, ring-then-update %v",
						trial, p, n, len(tiles), r, k, got[r][k], want[r][k])
				}
			}
		}
		serial := cloneRanks(ref)
		for _, c := range perm {
			untiledRing(serial, g, tiles[c], nil)
		}
		for r := range plain {
			for k := range plain[r] {
				if math.Float64bits(plain[r][k]) != math.Float64bits(serial[r][k]) {
					t.Fatalf("trial %d (p=%d n=%d): nil update: rank %d elem %d = %v, serial ring %v",
						trial, p, n, r, k, plain[r][k], serial[r][k])
				}
			}
		}
	}
}

// TestRingAllReduceTiledMatchesUntiled: the tiled ring is the untiled one.
// Over random rank counts 1–5, buffers several tiles long and ranges that
// start and end inside a tile and straddle ring-chunk boundaries, it leaves
// the same bytes, reports exactly the same Stats — message counts included —
// and hands update every element of the range exactly once.
func TestRingAllReduceTiledMatchesUntiled(t *testing.T) {
	const lr = 0.37
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
		weights := randRanks(uint64(6000+trial), 1, n)[0]
		sgd := func(data [][]float64, seen []int) func(rank, lo, hi int) {
			return func(rank, lo, hi int) {
				for k := lo; k < hi; k++ {
					seen[k]++
					data[rank][k] = weights[k] - lr*data[rank][k]
				}
			}
		}

		want, got := cloneRanks(ref), cloneRanks(ref)
		wantSeen, gotSeen := make([]int, n), make([]int, n)
		wantSt := untiledRing(want, g, rr, sgd(want, wantSeen))
		gotSt, err := RingAllReduceUpdate(got, g, rr, sgd(got, gotSeen))
		if err != nil {
			t.Fatal(err)
		}
		if gotSt != wantSt {
			t.Fatalf("trial %d (p=%d n=%d g=%d rr=%v): stats %+v, untiled %+v", trial, p, n, g, rr, gotSt, wantSt)
		}
		if st := RingAllReduceStats(p, n, g, rr); st != wantSt {
			t.Fatalf("trial %d (p=%d n=%d g=%d rr=%v): RingAllReduceStats %+v, untiled %+v", trial, p, n, g, rr, st, wantSt)
		}
		for k := range gotSeen {
			if in := k >= rr.Lo && k < rr.Hi; gotSeen[k] != wantSeen[k] || (gotSeen[k] == 1) != in {
				t.Fatalf("trial %d (p=%d rr=%v): update saw element %d %d times, untiled %d", trial, p, rr, k, gotSeen[k], wantSeen[k])
			}
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

// BenchmarkRingAllReduceTile reduces and SGD-steps one §5 tail at the
// benchmark's ep_params size (4 ranks of 2.63 M elements) with the step's
// update — tensor.StepRow, which writes the replica and the live weight —
// untiled (the scalar oracle) and at tile widths around RingTile. The tiled
// rows run RingAllReduceUpdate's own tile loop at their width; the "ring"
// row is RingAllReduceUpdate at RingTile.
func BenchmarkRingAllReduceTile(b *testing.B) {
	const p, n = 4, 2_630_000
	data := randRanks(1, p, n)
	weights := randRanks(2, 1, n)[0]
	update := func(rank, lo, hi int) {
		tensor.StepRow(weights[lo:hi], data[rank][lo:hi], 1e-9)
	}
	whole := RowRange{Lo: 0, Hi: n}
	b.Run("untiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			untiledRing(data, p, whole, update)
		}
	})
	for _, tile := range []int{1024, 2048, 4096, 8192, 16384, 65536} {
		b.Run(fmt.Sprintf("tile=%d", tile), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < n; lo += tile {
					ringTile(data, n, RowRange{Lo: lo, Hi: min(lo+tile, n)}, update)
				}
			}
		})
	}
	b.Run("ring", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RingAllReduceUpdate(data, p, whole, update); err != nil {
				b.Fatal(err)
			}
		}
	})
}
