package comm

import (
	"fmt"

	"repro/internal/tensor"
)

// This file layers chunked AllGather and ReduceScatter on top of the ring
// primitives in comm.go — the intra-node collectives of the paper's
// expert-sharding parallelism (ESP, §4), made executable for the stream
// runtime. As with the chunked AlltoAll, the token dimension of every
// rank's block is split into contiguous row ranges; each range is a
// complete (smaller) collective with its own completion, so AllGather
// chunk c+1 can be on the wire while the sharded expert GEMMs consume
// chunk c. Chunking only restricts the same ring schedule to disjoint row
// sets, so the reassembled result is byte-identical to the monolithic
// collective. Staging and working buffers come from the shared tensor
// free-list, keeping allocation churn out of measured intervals.

// RingAllGatherInto is RingAllGather writing into caller-owned result
// buffers: out[r] must be n·p elements and receives
// data[0] ‖ data[1] ‖ … ‖ data[p-1], moved in p-1 ring steps with pooled
// per-step staging.
func RingAllGatherInto(out, data [][]float64, gpusPerNode int) (Stats, error) {
	var st Stats
	n, err := checkUniform(data)
	if err != nil {
		return st, err
	}
	p := len(data)
	if len(out) != p {
		return st, fmt.Errorf("comm: allgather destination has %d ranks, want %d", len(out), p)
	}
	for r := range out {
		if len(out[r]) != n*p {
			return st, fmt.Errorf("comm: allgather destination rank %d has %d elements, want %d", r, len(out[r]), n*p)
		}
	}
	w := world{g: gpusPerNode}
	for r := 0; r < p; r++ {
		copy(out[r][r*n:(r+1)*n], data[r])
	}
	staged := make([]*tensor.Tensor, p)
	for s := 0; s < p-1; s++ {
		for r := 0; r < p; r++ {
			c := ((r-s)%p + p) % p
			cp := tensor.GetUninit(n)
			copy(cp.Data(), out[r][c*n:(c+1)*n])
			staged[r] = cp
		}
		for r := 0; r < p; r++ {
			dst := (r + 1) % p
			c := ((r-s)%p + p) % p
			copy(out[dst][c*n:(c+1)*n], staged[r].Data())
			st.add(w.sameNode(r, dst), n)
			tensor.Put(staged[r])
		}
	}
	return st, nil
}

// RingReduceScatterInto is RingReduceScatter writing into caller-owned
// result buffers: out[r] must be n/p elements and receives segment r of
// the elementwise sum. The ring's working copies are pooled; the addition
// order per element is exactly RingReduceScatter's, so the results are
// byte-identical.
func RingReduceScatterInto(out, data [][]float64, gpusPerNode int) (Stats, error) {
	var st Stats
	n, err := checkUniform(data)
	if err != nil {
		return st, err
	}
	p := len(data)
	if n%p != 0 {
		return st, fmt.Errorf("comm: reduce-scatter length %d not divisible by %d ranks", n, p)
	}
	seg := n / p
	if len(out) != p {
		return st, fmt.Errorf("comm: reduce-scatter destination has %d ranks, want %d", len(out), p)
	}
	for r := range out {
		if len(out[r]) != seg {
			return st, fmt.Errorf("comm: reduce-scatter destination rank %d has %d elements, want %d", r, len(out[r]), seg)
		}
	}
	w := world{g: gpusPerNode}
	// Work on pooled copies so the caller's buffers survive.
	work := make([]*tensor.Tensor, p)
	for r := range data {
		work[r] = tensor.GetUninit(n)
		copy(work[r].Data(), data[r])
	}
	defer func() {
		for _, t := range work {
			tensor.Put(t)
		}
	}()
	chunk := func(r, c int) []float64 { return work[r].Data()[c*seg : (c+1)*seg] }
	staged := make([]*tensor.Tensor, p)
	for s := 0; s < p-1; s++ {
		for r := 0; r < p; r++ {
			c := ((r-s)%p + p) % p
			cp := tensor.GetUninit(seg)
			copy(cp.Data(), chunk(r, c))
			staged[r] = cp
		}
		for r := 0; r < p; r++ {
			dst := (r + 1) % p
			c := ((r-s)%p + p) % p
			dchunk := chunk(dst, c)
			for i, v := range staged[r].Data() {
				dchunk[i] += v
			}
			st.add(w.sameNode(r, dst), seg)
			tensor.Put(staged[r])
		}
	}
	for r := 0; r < p; r++ {
		// After p-1 steps rank r holds the reduced chunk (r+1) mod p; the
		// conventional output is segment r, so shift.
		c := (r + 1) % p
		copy(out[c], chunk(r, c))
	}
	return st, nil
}

// AllGatherRows runs the AllGather restricted to rows [rr.Lo, rr.Hi) of
// every rank's (Rows × Width) block, writing the gathered rows into the
// same positions of out (out[r] must be p·Rows·Width elements like a
// monolithic result buffer, source s's block at offset s·Rows·Width; rows
// outside the range are untouched). It packs the sub-rows into dense
// pooled buffers, rings them, and scatters the arrivals — so the data
// movement inherits the ring's step structure and any tiling of [0, Rows)
// reproduces the monolithic RingAllGather byte for byte.
func AllGatherRows(data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	var st Stats
	b, err := checkRowsArgs(data, out, dims, rr, 1)
	if err != nil {
		return st, err
	}
	rows := rr.Len()
	if rows == 0 {
		return st, nil
	}
	p := len(data)
	w := dims.Width
	sub := make([][]float64, p)
	res := make([][]float64, p)
	staged := make([]*tensor.Tensor, 0, 2*p)
	defer func() {
		for _, t := range staged {
			tensor.Put(t)
		}
	}()
	for r := 0; r < p; r++ {
		in := tensor.GetUninit(rows * w)
		staged = append(staged, in)
		sub[r] = in.Data()
		copy(sub[r], data[r][rr.Lo*w:rr.Hi*w])
		rt := tensor.GetUninit(rows * w * p)
		staged = append(staged, rt)
		res[r] = rt.Data()
	}
	st, err = RingAllGatherInto(res, sub, gpusPerNode)
	if err != nil {
		return st, err
	}
	for d := 0; d < p; d++ {
		for s := 0; s < p; s++ {
			copy(out[d][s*b+rr.Lo*w:s*b+rr.Hi*w], res[d][s*rows*w:(s+1)*rows*w])
		}
	}
	return st, nil
}

// ReduceScatterRows runs the ReduceScatter restricted to rows
// [rr.Lo, rr.Hi) of every segment: data[r] is a full partial buffer of p
// (Rows × Width) segments, and out[r] (a single Rows × Width block)
// receives rows rr of the elementwise-summed segment r; rows outside the
// range are untouched. The packed sub-buffers keep the ring-chunk ↔
// segment correspondence of RingReduceScatter, so every element sees the
// monolithic sequence of additions and any tiling of [0, Rows) reproduces
// the monolithic collective byte for byte.
func ReduceScatterRows(data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	var st Stats
	b, err := checkRowsArgs(data, out, dims, rr, -1)
	if err != nil {
		return st, err
	}
	rows := rr.Len()
	if rows == 0 {
		return st, nil
	}
	p := len(data)
	w := dims.Width
	sub := make([][]float64, p)
	res := make([][]float64, p)
	staged := make([]*tensor.Tensor, 0, 2*p)
	defer func() {
		for _, t := range staged {
			tensor.Put(t)
		}
	}()
	for r := 0; r < p; r++ {
		in := tensor.GetUninit(rows * w * p)
		staged = append(staged, in)
		sub[r] = in.Data()
		for seg := 0; seg < p; seg++ {
			copy(sub[r][seg*rows*w:(seg+1)*rows*w], data[r][seg*b+rr.Lo*w:seg*b+rr.Hi*w])
		}
		rt := tensor.GetUninit(rows * w)
		staged = append(staged, rt)
		res[r] = rt.Data()
	}
	st, err = RingReduceScatterInto(res, sub, gpusPerNode)
	if err != nil {
		return st, err
	}
	for r := 0; r < p; r++ {
		copy(out[r][rr.Lo*w:rr.Hi*w], res[r])
	}
	return st, nil
}

// checkRowsArgs validates the shared argument structure of AllGatherRows
// (dir=1: data blocks are Rows, out buffers p·Rows) and ReduceScatterRows
// (dir=-1: data buffers p·Rows, out blocks Rows), returning the
// per-segment element count Rows·Width.
func checkRowsArgs(data, out [][]float64, dims BlockDims, rr RowRange, dir int) (int, error) {
	if dims.Rows <= 0 || dims.Width <= 0 {
		return 0, fmt.Errorf("comm: invalid block dims %dx%d", dims.Rows, dims.Width)
	}
	b := dims.Elems()
	p := len(data)
	if p == 0 {
		return 0, fmt.Errorf("comm: no ranks")
	}
	if len(out) != p {
		return 0, fmt.Errorf("comm: %d output ranks, want %d", len(out), p)
	}
	small, big := b, b*p
	dataLen, outLen := small, big
	if dir < 0 {
		dataLen, outLen = big, small
	}
	for r := 0; r < p; r++ {
		if len(data[r]) != dataLen {
			return 0, fmt.Errorf("comm: input rank %d has %d elements, want %d", r, len(data[r]), dataLen)
		}
		if len(out[r]) != outLen {
			return 0, fmt.Errorf("comm: output rank %d has %d elements, want %d", r, len(out[r]), outLen)
		}
	}
	return b, dims.checkRange(rr)
}

// ChunkedAllGather splits each rank's block rows into chunks contiguous
// ranges and performs one AllGather per chunk, reassembling the monolithic
// result; onChunk, when non-nil, is invoked after each chunk completes —
// the per-chunk completion hook pipelined ESP consumers build on.
func ChunkedAllGather(data [][]float64, gpusPerNode int, dims BlockDims, chunks int, onChunk func(c int, rr RowRange)) ([][]float64, Stats, error) {
	var st Stats
	p := len(data)
	if p == 0 {
		return nil, st, fmt.Errorf("comm: no ranks")
	}
	out := allocRanks(p, dims.Elems()*p)
	for c, rr := range SplitRows(dims.Rows, chunks) {
		cst, err := AllGatherRows(data, out, gpusPerNode, dims, rr)
		if err != nil {
			return nil, st, err
		}
		st.Merge(cst)
		if onChunk != nil {
			onChunk(c, rr)
		}
	}
	return out, st, nil
}

// ChunkedReduceScatter splits every segment's rows into chunks contiguous
// ranges and performs one ReduceScatter per chunk; the reassembled per-rank
// segments are byte-identical to the monolithic RingReduceScatter.
func ChunkedReduceScatter(data [][]float64, gpusPerNode int, dims BlockDims, chunks int, onChunk func(c int, rr RowRange)) ([][]float64, Stats, error) {
	var st Stats
	p := len(data)
	if p == 0 {
		return nil, st, fmt.Errorf("comm: no ranks")
	}
	out := allocRanks(p, dims.Elems())
	for c, rr := range SplitRows(dims.Rows, chunks) {
		cst, err := ReduceScatterRows(data, out, gpusPerNode, dims, rr)
		if err != nil {
			return nil, st, err
		}
		st.Merge(cst)
		if onChunk != nil {
			onChunk(c, rr)
		}
	}
	return out, st, nil
}
