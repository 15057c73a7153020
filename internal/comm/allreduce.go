package comm

import (
	"fmt"
	"sync/atomic"
)

// This file layers chunked, asynchronous Ring-AllReduce on top of the
// monolithic RingAllReduce — the communication half of the paper's §5
// adaptive gradient partitioning. A flat gradient buffer is split into
// contiguous element ranges; each range is reduced with the ring schedule
// of the *full* buffer restricted to that range, so any tiling of the
// buffer reproduces the monolithic collective byte for byte:
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

// ChunkedRingAllReduce splits the rank buffers into chunks contiguous
// element ranges and performs one restricted ring per range, in order.
// The final contents and the summed per-element traffic are byte-identical
// to the monolithic RingAllReduce; onChunk, when non-nil, is invoked after
// each range completes — the per-chunk completion hook overlapped
// gradient-sync consumers build on.
func ChunkedRingAllReduce(data [][]float64, gpusPerNode, chunks int, onChunk func(c int, rr RowRange)) (Stats, error) {
	var st Stats
	n, err := checkUniform(data)
	if err != nil {
		return st, err
	}
	for c, rr := range SplitFlat(n, chunks) {
		cst, err := RingAllReduceChunk(data, gpusPerNode, rr)
		if err != nil {
			return st, err
		}
		st.Merge(cst)
		if onChunk != nil {
			onChunk(c, rr)
		}
	}
	return st, nil
}

// AsyncAR is an in-flight chunked Ring-AllReduce, the AllReduce analogue
// of AsyncA2A. Chunks complete in order; ChunkDone(c) unblocks as soon as
// chunk c's elements are fully reduced in place — or as soon as the
// collective fails, so consumers never hang. Landed(c) distinguishes the
// two once ChunkDone has unblocked; Wait blocks for the whole collective.
type AsyncAR struct {
	ranges []RowRange
	done   []chan struct{}
	landed atomic.Int32
	stats  Stats
	err    error
	fin    chan struct{}
}

// Chunks returns the number of chunks and Range the element range of
// chunk c.
func (a *AsyncAR) Chunks() int                     { return len(a.ranges) }
func (a *AsyncAR) Range(c int) RowRange            { return a.ranges[c] }
func (a *AsyncAR) ChunkDone(c int) <-chan struct{} { return a.done[c] }

// Landed reports whether chunk c's elements are fully reduced. Meaningful
// once ChunkDone(c) has unblocked: false there means the collective failed
// before chunk c completed.
func (a *AsyncAR) Landed(c int) bool { return int(a.landed.Load()) > c }

// Wait blocks until every chunk has completed and returns the summed Stats
// and the first error. The buffers hold the reduced sums in place.
func (a *AsyncAR) Wait() (Stats, error) {
	<-a.fin
	return a.stats, a.err
}

// AllReduceAsync validates the buffers synchronously, then starts a
// chunked Ring-AllReduce on a background goroutine, reducing in place with
// per-chunk completion channels. The caller must not touch data until the
// relevant ChunkDone has unblocked (for that chunk's elements) or Wait has
// returned (for the whole buffer).
func AllReduceAsync(data [][]float64, gpusPerNode, chunks int) (*AsyncAR, error) {
	n, err := checkUniform(data)
	if err != nil {
		return nil, err
	}
	ranges := SplitFlat(n, chunks)
	a := &AsyncAR{ranges: ranges, fin: make(chan struct{})}
	a.done = make([]chan struct{}, len(ranges))
	for c := range a.done {
		a.done[c] = make(chan struct{})
	}
	go func() {
		defer close(a.fin)
		completed := 0
		for c, rr := range ranges {
			cst, cerr := RingAllReduceChunk(data, gpusPerNode, rr)
			if cerr != nil {
				a.err = cerr
				break
			}
			a.stats.Merge(cst)
			a.landed.Store(int32(c + 1))
			close(a.done[c])
			completed = c + 1
		}
		for c := completed; c < len(a.done); c++ {
			close(a.done[c])
		}
	}()
	return a, nil
}
