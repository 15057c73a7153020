package comm

import "fmt"

// This file holds the windowed AllGather and ReduceScatter — the in-group
// collectives of the paper's expert-sharding parallelism (ESP, §4), made
// executable for the stream runtime — over the block endpoints of chunked.go.
// As with the chunked AlltoAll, a call moves a row window of every block, so
// AllGather chunk c+1 can be on the wire while the sharded expert GEMMs
// consume chunk c, and any tiling of the rows reproduces the monolithic ring
// byte for byte (its reference implementations are the test oracles
// ringAllGather and ringReduceScatter).
//
// A window travels from the source block to the block it lands in: no packed
// sub-buffer, no pooled staging, no working copy. The ring survives as the
// step structure — which member hands which segment to its neighbour at
// which step, what Stats count — and, for ReduceScatter, as the order in
// which a segment's contributions are added.

// ringMove is one AllGather or ReduceScatter over block endpoints, restricted
// to rows [lo, hi) of every block: p members in nodes of g. The narrow side
// lists k blocks per member, the wide side p·k: block c·k+j of a wide list
// pairs with block j of member c's narrow list. AllGather copies narrow
// (every member's own blocks) to wide (where each member receives them);
// ReduceScatter sums wide (every member's contributions to each segment)
// into narrow (the segment owner's blocks).
type ringMove struct {
	wide, narrow endpoint
	p, k, g      int
	lo, hi       int
}

// allGather lands every member's window in every member's copy of it. What
// rank r hands rank r+1 at step s is ring chunk r−s: source r−s's bytes,
// copied from where they still are.
func (m ringMove) allGather() Stats {
	var st Stats
	w := world{g: m.g}
	for r := 0; r < m.p; r++ {
		m.land(r, r)
	}
	for s := 0; s < m.p-1; s++ {
		for r := 0; r < m.p; r++ {
			next := (r + 1) % m.p
			st.add(w.sameNode(r, next), m.land(next, ((r-s)%m.p+m.p)%m.p))
		}
	}
	return st
}

// land copies source c's window into the blocks member d receives it in and
// returns the elements moved. A destination that is the source block itself
// holds the rows already.
func (m ringMove) land(d, c int) int {
	rows, n := m.hi-m.lo, 0
	for j := 0; j < m.k; j++ {
		src, dst := m.narrow.at(c, j), m.wide.at(d, c*m.k+j)
		if !sameMemory(dst, src) {
			copyRows(dst, m.lo, src, m.lo, rows)
		}
		n += rows * src.Width
	}
	return n
}

// reduceScatter leaves in segment c's blocks the ring's sum of the members'
// contributions to it: the partial sum starts as member c's, and at step s
// rank r hands rank r+1 the partial of segment r−s, which adds its own —
// received + held, the monolithic ring's operand order. The partial lives in
// the destination throughout, so no contribution is modified.
func (m ringMove) reduceScatter() Stats {
	var st Stats
	w := world{g: m.g}
	for c := 0; c < m.p; c++ {
		m.accumulate(c, c, true)
	}
	for s := 0; s < m.p-1; s++ {
		for r := 0; r < m.p; r++ {
			next := (r + 1) % m.p
			st.add(w.sameNode(r, next), m.accumulate(((r-s)%m.p+m.p)%m.p, next, false))
		}
	}
	return st
}

// accumulate adds member r's contribution to segment c into the segment's
// blocks — or starts the sum with it — and returns the segment window's
// element count. An absent contribution (nil Data) is the zeros a ring over
// explicit buffers would have moved: it starts the sum at +0 and, added,
// turns a −0 into +0 exactly as that ring does.
func (m ringMove) accumulate(c, r int, first bool) int {
	n := 0
	for j := 0; j < m.k; j++ {
		dst, x := m.narrow.at(c, j), m.wide.at(r, c*m.k+j)
		n += (m.hi - m.lo) * dst.Width
		if first && x.Data != nil {
			if !sameMemory(dst, x) {
				copyRows(dst, m.lo, x, m.lo, m.hi-m.lo)
			}
			continue
		}
		for t := m.lo; t < m.hi && dst.Width > 0; t++ {
			d := dst.Data[t*dst.Stride:][:dst.Width]
			switch {
			case first:
				clear(d)
			case x.Data == nil:
				for i, v := range d {
					d[i] = 0 + v
				}
			default:
				for i, v := range x.Data[t*x.Stride:][:dst.Width] {
					d[i] = v + d[i]
				}
			}
		}
	}
	return n
}

// checkRing validates the endpoint lists shared by AllGatherBlocks and
// ReduceScatterBlocks — p members, k blocks each on the narrow side, p·k on
// the wide side, rows [0, rr.Hi) present in every block, each wide block as
// wide as the narrow block it pairs with (or, where absent allows, absent) —
// and returns k.
func checkRing(what string, wide, narrow [][]Block, rr RowRange, absent bool) (int, error) {
	p := len(narrow)
	if p == 0 {
		return 0, fmt.Errorf("comm: no ranks")
	}
	if len(wide) != p {
		return 0, fmt.Errorf("comm: %s has %d ranks on one side, %d on the other", what, len(wide), p)
	}
	if rr.Lo < 0 || rr.Hi < rr.Lo {
		return 0, fmt.Errorf("comm: invalid row range [%d,%d)", rr.Lo, rr.Hi)
	}
	k := len(narrow[0])
	if err := checkLists(what, narrow, k, rr.Hi); err != nil {
		return 0, err
	}
	if err := checkLists(what, wide, p*k, rr.Hi); err != nil {
		return 0, err
	}
	for r, list := range wide {
		for i, b := range list {
			if absent && b.Data == nil {
				continue
			}
			if want := narrow[i/k][i%k].Width; b.Width != want {
				return 0, fmt.Errorf("comm: %s rank %d block %d is %d wide, the block it pairs with %d", what, r, i, b.Width, want)
			}
		}
	}
	return k, nil
}

// AllGatherBlocks gathers rows rr of every member's blocks onto every
// member: src[s] lists member s's k blocks and dst[d] the p·k blocks member
// d receives them in, block s·k+j from src[s][j]. A pair agrees in width;
// the sources' widths may differ, zero included (the short trailing column
// shard of a width the group does not divide). A destination block may be
// the source block itself — the member's own rows, in place — and is then
// left alone; otherwise sources and destinations must not overlap. With one
// width and dense packing this is the monolithic ring on the window, Stats
// included; in general Stats count the elements the ring moves between
// blocks. guard, when non-nil, runs before the first byte moves (see Guard).
func AllGatherBlocks(guard Guard, src, dst [][]Block, gpusPerNode int, rr RowRange) (Stats, error) {
	if err := guard.check(); err != nil {
		return Stats{}, err
	}
	k, err := checkRing("allgather", dst, src, rr, false)
	if err != nil || rr.Len() == 0 {
		return Stats{}, err
	}
	m := ringMove{wide: endpoint{lists: dst}, narrow: endpoint{lists: src}, p: len(src), k: k, g: gpusPerNode, lo: rr.Lo, hi: rr.Hi}
	return m.allGather(), nil
}

// ReduceScatterBlocks sums rows rr of the members' contributions segment by
// segment: contrib[r] lists member r's p·k blocks, block c·k+j its
// contribution to dst[c][j], and dst[c] the k blocks of segment c on its
// owner. Every element sees the monolithic ring's sequence of additions, so
// any tiling of the rows reproduces the monolithic ring byte for byte. A
// contribution may be absent — a Block with nil Data: this member adds
// nothing to that block — and the result is bit for bit the ring's over
// explicit zeros. A destination block may be its own member's contribution
// (reduced in place); otherwise contributions and destinations must not
// overlap, and contributions are never written. guard, when non-nil, runs
// before the first byte moves (see Guard).
func ReduceScatterBlocks(guard Guard, contrib, dst [][]Block, gpusPerNode int, rr RowRange) (Stats, error) {
	if err := guard.check(); err != nil {
		return Stats{}, err
	}
	k, err := checkRing("reduce-scatter", contrib, dst, rr, true)
	if err != nil || rr.Len() == 0 {
		return Stats{}, err
	}
	m := ringMove{wide: endpoint{lists: contrib}, narrow: endpoint{lists: dst}, p: len(dst), k: k, g: gpusPerNode, lo: rr.Lo, hi: rr.Hi}
	return m.reduceScatter(), nil
}

// AllGatherRows is AllGatherBlocks over dense endpoints: data[r] is one
// (Rows × Width) block and out[r] p·Rows·Width elements like a monolithic
// result buffer, source s's block at offset s·Rows·Width. Rows outside
// [rr.Lo, rr.Hi) are untouched, and any tiling of [0, Rows) reproduces the
// monolithic ring AllGather byte for byte.
func AllGatherRows(data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	if err := checkRowsArgs(data, out, dims, rr, 1); err != nil || rr.Len() == 0 {
		return Stats{}, err
	}
	m := ringMove{wide: endpoint{dense: out, dims: dims}, narrow: endpoint{dense: data, dims: dims}, p: len(data), k: 1, g: gpusPerNode, lo: rr.Lo, hi: rr.Hi}
	return m.allGather(), nil
}

// ReduceScatterRows is ReduceScatterBlocks over dense endpoints: data[r] is a
// full partial buffer of p (Rows × Width) segments, and out[r] (a single
// Rows × Width block) receives rows rr of the elementwise-summed segment r;
// rows outside the range are untouched. Any tiling of [0, Rows) reproduces
// the monolithic ring ReduceScatter byte for byte.
func ReduceScatterRows(data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	if err := checkRowsArgs(data, out, dims, rr, -1); err != nil || rr.Len() == 0 {
		return Stats{}, err
	}
	m := ringMove{wide: endpoint{dense: data, dims: dims}, narrow: endpoint{dense: out, dims: dims}, p: len(data), k: 1, g: gpusPerNode, lo: rr.Lo, hi: rr.Hi}
	return m.reduceScatter(), nil
}

// checkRowsArgs validates the shared argument structure of AllGatherRows
// (dir=1: data blocks are Rows, out buffers p·Rows) and ReduceScatterRows
// (dir=-1: data buffers p·Rows, out blocks Rows).
func checkRowsArgs(data, out [][]float64, dims BlockDims, rr RowRange, dir int) error {
	if dims.Rows <= 0 || dims.Width <= 0 {
		return fmt.Errorf("comm: invalid block dims %dx%d", dims.Rows, dims.Width)
	}
	b := dims.Elems()
	p := len(data)
	if p == 0 {
		return fmt.Errorf("comm: no ranks")
	}
	if len(out) != p {
		return fmt.Errorf("comm: %d output ranks, want %d", len(out), p)
	}
	small, big := b, b*p
	dataLen, outLen := small, big
	if dir < 0 {
		dataLen, outLen = big, small
	}
	for r := 0; r < p; r++ {
		if len(data[r]) != dataLen {
			return fmt.Errorf("comm: input rank %d has %d elements, want %d", r, len(data[r]), dataLen)
		}
		if len(out[r]) != outLen {
			return fmt.Errorf("comm: output rank %d has %d elements, want %d", r, len(out[r]), outLen)
		}
	}
	return dims.checkRange(rr)
}
