package comm

import "fmt"

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
// update on every rank, computed once instead of p times.
func RingAllReduceUpdate(data [][]float64, gpusPerNode int, rr RowRange, update func(rank, lo, hi int)) (Stats, error) {
	var st Stats
	n, err := checkUniform(data)
	if err != nil {
		return st, err
	}
	if rr.Lo < 0 || rr.Hi < rr.Lo || rr.Hi > n {
		return st, fmt.Errorf("comm: allreduce range [%d,%d) outside buffer of %d elements", rr.Lo, rr.Hi, n)
	}
	p := len(data)
	if rr.Len() == 0 {
		return st, nil
	}
	if p == 1 {
		if update != nil {
			update(0, rr.Lo, rr.Hi)
		}
		return st, nil
	}
	w := world{g: gpusPerNode}
	// Ring-chunk c of the FULL buffer covers [c·n/p, (c+1)·n/p); clip
	// intersects it with the requested range.
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
				next := (r + 1) % p
				copy(data[next][lo:hi], data[r][lo:hi])
				st.add(w.sameNode(r, next), hi-lo)
			}
		}
	}
	return st, nil
}
