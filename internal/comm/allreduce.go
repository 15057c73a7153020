package comm

import "repro/internal/tensor"

// This file holds the Ring-AllReduce over an element range of flat rank
// buffers. Each range is reduced with the ring schedule of the *full* buffer
// restricted to that range: element k belongs to ring-chunk c by its
// position in the full buffer, chunk c's accumulation path (rank c → c+1 →
// … → c+p−1) depends on c alone, and every ring operation is element-wise,
// so each element sees the monolithic sequence of copies and additions
// however the buffer is sliced. The training step does not run it: every
// gradient element has one contributor there and one copy, stepped in place
// (internal/gradsync), so there is nothing to sum. The ring stays as the
// chunked ≡ monolithic reference.
//
// The ring moves a range one RingTile-wide tile at a time, each through the
// whole ring before the next — the contract above applied to the tiling, so
// the bytes are the ring's — and a tile's p rank slices (128 KiB at p = 4)
// stay in L2 across its 2(p−1) passes. Stats count the range's ring, not
// the tiles. Its reduce-scatter hop adds with tensor.AddRow, as
// ReduceScatterBlocks' hops do: eight IEEE additions per instruction on
// AVX-512, the scalar loop's bits (the scalar untiled ring is the tests'
// oracle).

// RingTile is the element width of the tiles the ring moves a range in, and
// the unit the §5 sync's exposed tail (internal/gradsync) splits over the
// tensor pool. On a 2-core AVX-512 Xeon (2 MiB L2 per core), widths
// 1 024–65 536 tied on the ring at a §5 tail's size.
const RingTile = 4096

// SplitFlat partitions a flat buffer of n elements into at most chunks
// contiguous, near-equal, non-empty ranges — SplitRows over elements
// instead of token rows. It is the slicing used to cut a gradient buffer
// into §5 AllReduce slices.
func SplitFlat(n, chunks int) []RowRange { return SplitRows(n, chunks) }

// RingAllReduceChunk sums elements [rr.Lo, rr.Hi) of the rank buffers
// elementwise into every rank, in place, using the monolithic ring
// schedule restricted to that range. Buffers must be full-length (every
// rank the same length); ranges from any tiling of [0, n) may be reduced
// in any order and the final contents are byte-identical to one
// RingAllReduce over the whole buffer. The returned Stats are
// ringAllReduceStats of the range.
func RingAllReduceChunk(data [][]float64, gpusPerNode int, rr RowRange) (Stats, error) {
	n, err := checkUniform(data)
	if err != nil {
		return Stats{}, err
	}
	if err := checkRange("allreduce", rr, n); err != nil {
		return Stats{}, err
	}
	if rr.Len() == 0 || len(data) == 1 {
		return Stats{}, nil
	}
	for lo := rr.Lo; lo < rr.Hi; lo += RingTile {
		ringTile(data, n, RowRange{Lo: lo, Hi: min(lo+RingTile, rr.Hi)})
	}
	return ringAllReduceStats(len(data), n, gpusPerNode, rr), nil
}

// ringTile runs the whole restricted ring over one tile rr of p ≥ 2 rank
// buffers of n elements.
func ringTile(data [][]float64, n int, rr RowRange) {
	p := len(data)
	// Ring-chunk c of the FULL buffer covers [c·n/p, (c+1)·n/p); clip
	// intersects it with the tile.
	clip := func(c int) (int, int) {
		c = (c%p + p) % p
		return max(c*n/p, rr.Lo), min((c+1)*n/p, rr.Hi)
	}
	// Phase 1: reduce-scatter. At step s, rank r sends its slice of ring
	// chunk (r-s) mod p to rank r+1, which accumulates. Every send of a step
	// must read pre-step data, and does without a staging copy: within one
	// step rank r's buffer is read only in chunk r-s and written only in
	// chunk r-1-s (what rank r-1 sends it), which are disjoint for p >= 2.
	for s := 0; s < p-1; s++ {
		for r := 0; r < p; r++ {
			if lo, hi := clip(r - s); lo < hi {
				tensor.AddRow(data[(r+1)%p][lo:hi], data[r][lo:hi])
			}
		}
	}
	// After phase 1, rank r holds the fully reduced slice of ring chunk
	// (r+1) mod p. Phase 2: allgather the reduced slices around the ring;
	// rank r reads chunk r+1-s and is written in chunk r-s, disjoint again.
	for s := 0; s < p-1; s++ {
		for r := 0; r < p; r++ {
			if lo, hi := clip(r + 1 - s); lo < hi {
				copy(data[(r+1)%p][lo:hi], data[r][lo:hi])
			}
		}
	}
}

// ringAllReduceStats is the traffic of the restricted ring over range rr
// of p rank buffers of n elements: one message per non-empty (step, rank)
// clip of each half, counting the range as one collective however it is
// tiled.
func ringAllReduceStats(p, n, gpusPerNode int, rr RowRange) Stats {
	var st Stats
	if p < 2 || rr.Len() <= 0 {
		return st
	}
	w := world{g: gpusPerNode}
	// Ring chunk c is sent by rank r at step s of the reduce-scatter half
	// when c ≡ r−s, and of the all-gather half when c ≡ r+1−s: each half
	// sends every chunk once in each of its p−1 steps, from a rank fixed by
	// (c, s).
	for c := 0; c < p; c++ {
		lo, hi := max(c*n/p, rr.Lo), min((c+1)*n/p, rr.Hi)
		if lo >= hi {
			continue
		}
		for s := 0; s < p-1; s++ {
			r := (c + s) % p
			st.add(w.sameNode(r, (r+1)%p), hi-lo)
			r = (c + s + p - 1) % p
			st.add(w.sameNode(r, (r+1)%p), hi-lo)
		}
	}
	return st
}
