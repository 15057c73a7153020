package comm

import (
	"fmt"

	"repro/internal/tensor"
)

// This file holds the Ring-AllReduce over an element range of flat rank
// buffers — the communication half of the paper's §5 adaptive gradient
// partitioning, whose slices the stream runtime runs as plan tasks. Each
// range is reduced with the ring schedule of the *full* buffer restricted
// to that range, so any tiling of the buffer reproduces the monolithic
// collective byte for byte:
//
//   - the monolithic ring assigns element k to ring-chunk c by its
//     position in the full buffer, and the accumulation path of chunk c
//     (rank c → c+1 → … → c+p−1) is a function of c alone;
//   - RingAllReduceUpdate keeps that full-buffer chunk assignment and only
//     restricts which elements move, and every ring operation is
//     element-wise — so each element sees exactly the monolithic sequence
//     of copies and additions no matter how the buffer is sliced.
//
// There is one ring. Between its two halves every element of the range is
// fully reduced on exactly one rank, and that is where an update — the
// optimizer step of a training loop — is applied: once per element, before
// the all-gather half hands every other rank a copy of the result.
// RingAllReduceChunk and RingAllReduce are the ring with no update.
//
// The ring moves a range one tile at a time. Tiles are RingTile elements
// wide, cut from the range's start, and each goes through the whole ring —
// reduce-scatter, update, all-gather — before the next begins. That is the
// contract above applied to the tiling of the range, so the bytes are the
// ring's. What it buys is locality: the ring passes over a range 2(p−1)
// times, and a tile's p rank slices (p·RingTile·8 bytes, 128 KiB at p = 4)
// stay in a core's L2 across all of them, where the range's would go to DRAM
// on every pass. Stats do not see the tiles: they count the range's ring.
//
// A reduce-scatter hop adds one rank's clip into the next rank's with
// tensor.AddRow, and ReduceScatterBlocks' hops (gatherscatter.go) add their
// rows the same way: eight lanes per instruction where the CPU has AVX-512,
// each lane one IEEE addition, so the sums are the scalar loop's bit for bit
// (the scalar untiled ring stays the tests' oracle).

// RingTile is the element width of the tiles RingAllReduceUpdate moves a
// range in (see the file comment). BenchmarkRingAllReduceTile measures it at
// a §5 tail's size (4 ranks × 2.63 M elements, with the step's StepRow
// update) on a 2-core AVX-512 Xeon with 2 MiB of L2 per core. With the
// vector hop every width from 1 024 to 65 536 takes 8–13.5 ms, inside one
// run's ±15 %, and the untiled scalar ring 15–17.5; in six rotated rounds of
// the repository benchmark's ep_params, 1 024, 4 096, 16 384 and 65 536 gave
// step_ms_min medians of 21.4, 21.4, 20.7 and 22.6 ms, a tie. 4 096 was the
// scalar hop's best width (17–20 ms against 31–34 untiled) and stays.
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
// RingAllReduce over the whole buffer.
func RingAllReduceChunk(data [][]float64, gpusPerNode int, rr RowRange) (Stats, error) {
	return RingAllReduceUpdate(data, gpusPerNode, rr, nil)
}

// RingAllReduceUpdate is RingAllReduceChunk with update, when non-nil,
// applied between the ring's halves: after the reduce-scatter half rank r
// holds the fully reduced clip [lo, hi) of one ring chunk, update(r, lo, hi)
// may rewrite data[r][lo:hi] in place (w − lr·g for an SGD step), and the
// all-gather half then copies what it left to every other rank. Over any
// tiling of [0, n) update sees each element exactly once — with one rank
// there is no ring and it sees the whole range — and every rank ends with
// the same bytes: RingAllReduceChunk followed by the same elementwise
// update on every rank, computed once instead of p times. The returned
// Stats are RingAllReduceStats of the range.
func RingAllReduceUpdate(data [][]float64, gpusPerNode int, rr RowRange, update func(rank, lo, hi int)) (Stats, error) {
	n, err := checkUniform(data)
	if err != nil {
		return Stats{}, err
	}
	if rr.Lo < 0 || rr.Hi < rr.Lo || rr.Hi > n {
		return Stats{}, fmt.Errorf("comm: allreduce range [%d,%d) outside buffer of %d elements", rr.Lo, rr.Hi, n)
	}
	if rr.Len() == 0 {
		return Stats{}, nil
	}
	if len(data) == 1 {
		if update != nil {
			update(0, rr.Lo, rr.Hi)
		}
		return Stats{}, nil
	}
	for lo := rr.Lo; lo < rr.Hi; lo += RingTile {
		ringTile(data, n, RowRange{Lo: lo, Hi: min(lo+RingTile, rr.Hi)}, update)
	}
	return RingAllReduceStats(len(data), n, gpusPerNode, rr), nil
}

// ringTile runs the whole restricted ring over one tile rr of p ≥ 2 rank
// buffers of n elements.
func ringTile(data [][]float64, n int, rr RowRange, update func(rank, lo, hi int)) {
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
	// (r+1) mod p and nobody else holds any of it: the one place to update it.
	if update != nil {
		for r := 0; r < p; r++ {
			if lo, hi := clip(r + 1); lo < hi {
				update(r, lo, hi)
			}
		}
	}
	// Phase 2: allgather the reduced slices around the ring; rank r reads
	// chunk r+1-s and is written in chunk r-s, disjoint again.
	for s := 0; s < p-1; s++ {
		for r := 0; r < p; r++ {
			if lo, hi := clip(r + 1 - s); lo < hi {
				copy(data[(r+1)%p][lo:hi], data[r][lo:hi])
			}
		}
	}
}

// RingAllReduceStats is the traffic of the restricted ring over range rr
// of p rank buffers of n elements: one message per non-empty (step, rank)
// clip of each half, counting the range as one collective however it is
// tiled. A caller that splits a range across goroutines counts it with this
// instead of summing the pieces' Stats.
func RingAllReduceStats(p, n, gpusPerNode int, rr RowRange) Stats {
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
