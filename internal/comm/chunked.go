package comm

import "fmt"

// This file holds the row-chunked AlltoAll over the Direct/1DH/2DH
// algorithms — the communication half of the paper's §4 fine-grained task
// scheduling. The token dimension of every per-destination block is split
// into r contiguous row chunks; each chunk is a complete (smaller) AlltoAll,
// run as its own plan task, so a stream runtime can start expert
// computation on chunk c while chunk c+1 is still in flight. Because
// chunking only restricts the same permutation to disjoint row sets, the
// reassembled result is byte-identical to the whole-block collective for
// every algorithm.
//
// It also defines the one endpoint shape every windowed collective — the
// AlltoAll here, AllGather and ReduceScatter in gatherscatter.go — moves
// between: each rank names its side as a list of Blocks, row-strided regions
// of its own memory, and a collective call carries a row window of every
// block straight from the source block to the block it lands in. There is no
// packed copy on either side, so a caller exchanges buffers laid out for
// their consumers — internal/moe's expert-major activations, per-rank expert
// blocks and column shards of hidden activations — directly. The dense
// layout of the …Rows entry points, consecutive (Rows × Width) tiles in one
// buffer per rank, is the same implementation over blocks it never has to
// list.

// Block is one row-strided region of a rank's memory: row t is
// Data[t·Stride : t·Stride+Width]. A contiguous tile has Stride == Width; a
// column band of a wider row-major buffer has that buffer's row width as its
// Stride and Data starting at the band's first column. Data bounds the block:
// a row window must lie inside it.
type Block struct {
	Data          []float64
	Width, Stride int
}

// Tile is a contiguous block of rows of width elements.
func Tile(data []float64, width int) Block { return Block{Data: data, Width: width, Stride: width} }

// check reports whether rows [0, rows) of b exist.
func (b Block) check(rows int) error {
	if b.Width < 0 || b.Stride < b.Width {
		return fmt.Errorf("invalid block shape: width %d, stride %d", b.Width, b.Stride)
	}
	if b.Width > 0 && rows > 0 && (rows-1)*b.Stride+b.Width > len(b.Data) {
		return fmt.Errorf("%d rows of width %d at stride %d need %d elements, block has %d",
			rows, b.Width, b.Stride, (rows-1)*b.Stride+b.Width, len(b.Data))
	}
	return nil
}

// sameMemory reports whether a and b are one region: a collective whose
// source and destination coincide there has nothing to move.
func sameMemory(a, b Block) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0] && a.Stride == b.Stride
}

// copyRows copies n rows of src from row slo into dst from row dlo; the
// blocks agree in width. Contiguous rows on both sides are one run.
func copyRows(dst Block, dlo int, src Block, slo, n int) {
	w := src.Width
	if w == 0 || n == 0 {
		return
	}
	do, so := dlo*dst.Stride, slo*src.Stride
	if dst.Stride == w && src.Stride == w {
		w, n = n*w, 1
	}
	for t := 0; t < n; t++ {
		copy(dst.Data[do+t*dst.Stride:][:w], src.Data[so+t*src.Stride:][:w])
	}
}

// endpoint addresses every rank's side of a collective as a list of blocks.
// A dense rank buffer — consecutive contiguous tiles of dims — is the
// special case that needs no list.
type endpoint struct {
	lists [][]Block
	dense [][]float64 // per rank, consecutive tiles; used when lists is nil
	dims  BlockDims   // the dense tile shape
}

func (e endpoint) at(r, i int) Block {
	if e.lists != nil {
		return e.lists[r][i]
	}
	n := e.dims.Elems()
	return Tile(e.dense[r][i*n:(i+1)*n], e.dims.Width)
}

// checkLists checks that every rank of a block-list endpoint names n blocks
// whose rows [0, rows) exist.
func checkLists(what string, lists [][]Block, n, rows int) error {
	for r, list := range lists {
		if len(list) != n {
			return fmt.Errorf("comm: %s rank %d lists %d blocks, want %d", what, r, len(list), n)
		}
		for i, b := range list {
			if err := b.check(rows); err != nil {
				return fmt.Errorf("comm: %s rank %d block %d: %w", what, r, i, err)
			}
		}
	}
	return nil
}

// BlockDims describes the shape of each per-destination block of a dense
// AlltoAll buffer: Rows token rows of Width elements. Every rank's buffer
// is p consecutive such blocks (block d destined to rank d), the layout
// blockView validates. A whole-block AlltoAll is the one-row window of
// BlockDims{Rows: 1, Width: b}.
type BlockDims struct {
	Rows  int // tokens per destination block (the chunked dimension)
	Width int // elements per token row
}

// Elems returns the per-block element count.
func (d BlockDims) Elems() int { return d.Rows * d.Width }

// validate checks data against the layout.
func (d BlockDims) validate(data [][]float64) (int, error) {
	b, err := blockView(data)
	if err != nil {
		return 0, err
	}
	if d.Rows <= 0 || d.Width <= 0 {
		return 0, fmt.Errorf("comm: invalid block dims %dx%d", d.Rows, d.Width)
	}
	if b != d.Elems() {
		return 0, fmt.Errorf("comm: block has %d elements, dims say %dx%d=%d", b, d.Rows, d.Width, d.Elems())
	}
	return b, nil
}

// checkRange checks a row window against the block height.
func (d BlockDims) checkRange(rr RowRange) error {
	if rr.Lo < 0 || rr.Hi < rr.Lo || rr.Hi > d.Rows {
		return fmt.Errorf("comm: row range [%d,%d) outside block of %d rows", rr.Lo, rr.Hi, d.Rows)
	}
	return nil
}

// RowRange is one contiguous chunk [Lo, Hi) of a block's token rows.
type RowRange struct{ Lo, Hi int }

// Len returns the number of rows in the range.
func (r RowRange) Len() int { return r.Hi - r.Lo }

// SplitRows partitions rows into at most chunks contiguous, near-equal,
// non-empty ranges — the r-way token split of §4.1. Fewer ranges come back
// when rows < chunks; rows <= 0 yields a single empty range (note the
// AlltoAll entry points require BlockDims.Rows >= 1, so an empty range is
// only useful to callers managing their own buffers).
func SplitRows(rows, chunks int) []RowRange {
	if chunks < 1 {
		chunks = 1
	}
	if rows <= 0 {
		return []RowRange{{0, 0}}
	}
	if chunks > rows {
		chunks = rows
	}
	out := make([]RowRange, chunks)
	for c := 0; c < chunks; c++ {
		out[c] = RowRange{Lo: c * rows / chunks, Hi: (c + 1) * rows / chunks}
	}
	return out
}

// AlltoAllRows runs the AlltoAll restricted to rows [rr.Lo, rr.Hi) of every
// destination block, writing the exchanged rows into the same positions of
// out (out[d] must be b*p elements, the layout of data; rows outside the
// range are untouched). out[d] = data[0][d] ‖ data[1][d] ‖ … once every row
// has moved: blocks ordered by source. The window moves in place: the chosen
// algorithm runs directly between data and out — Direct is one copy per
// (source, destination) window, 1DH/2DH keep their hops on window-sized
// arenas — so the step structure, the Stats and the per-row bytes are
// exactly the monolithic ones.
func AlltoAllRows(algo A2AAlgo, data, out [][]float64, gpusPerNode int, dims BlockDims, rr RowRange) (Stats, error) {
	b, err := dims.validate(data)
	if err != nil {
		return Stats{}, err
	}
	p := len(data)
	if err := checkInto(out, p, b); err != nil {
		return Stats{}, err
	}
	if err := dims.checkRange(rr); err != nil || rr.Len() == 0 {
		return Stats{}, err
	}
	m := a2aMove{dst: endpoint{dense: out, dims: dims}, src: endpoint{dense: data, dims: dims}, p: p, k: 1, g: gpusPerNode, w: dims.Width, lo: rr.Lo, hi: rr.Hi}
	return m.run(algo)
}

// AlltoAllBlocks is AlltoAllRows over block-list endpoints: send[r] and
// recv[r] list rank r's p·k blocks, block d·k+j being the j-th block
// exchanged with peer d, wherever each lives. Rows rr of send[s][d·k+j] land
// in rows rr of recv[d][s·k+j]; every block has one width. The dense layout
// with k·width wide blocks is the special case of consecutive tiles, and the
// Stats are that layout's. Send and receive blocks must not overlap. guard,
// when non-nil, runs before the first byte moves (see Guard).
func AlltoAllBlocks(guard Guard, algo A2AAlgo, send, recv [][]Block, gpusPerNode int, rr RowRange) (Stats, error) {
	if err := guard.check(); err != nil {
		return Stats{}, err
	}
	p := len(send)
	if p == 0 {
		return Stats{}, fmt.Errorf("comm: no ranks")
	}
	if len(recv) != p {
		return Stats{}, fmt.Errorf("comm: block alltoall has %d receiving ranks, want %d", len(recv), p)
	}
	n := len(send[0])
	if n == 0 || n%p != 0 {
		return Stats{}, fmt.Errorf("comm: %d blocks per rank not divisible across %d ranks", n, p)
	}
	if rr.Lo < 0 || rr.Hi < rr.Lo {
		return Stats{}, fmt.Errorf("comm: invalid row range [%d,%d)", rr.Lo, rr.Hi)
	}
	if err := checkLists("alltoall send", send, n, rr.Hi); err != nil {
		return Stats{}, err
	}
	if err := checkLists("alltoall receive", recv, n, rr.Hi); err != nil {
		return Stats{}, err
	}
	w := send[0][0].Width
	for r := 0; r < p; r++ {
		for i := 0; i < n; i++ {
			if send[r][i].Width != w || recv[r][i].Width != w || w == 0 {
				return Stats{}, fmt.Errorf("comm: alltoall rank %d block %d is %d/%d wide, want one positive width (%d)", r, i, send[r][i].Width, recv[r][i].Width, w)
			}
		}
	}
	if rr.Len() == 0 {
		return Stats{}, nil
	}
	m := a2aMove{dst: endpoint{lists: recv}, src: endpoint{lists: send}, p: p, k: n / p, g: gpusPerNode, w: w, lo: rr.Lo, hi: rr.Hi}
	return m.run(algo)
}

// ChunkedAlltoAll splits each destination block's token rows into chunks
// contiguous ranges and performs one AlltoAll per chunk into a freshly
// allocated output. The reassembled output and the summed volumes are
// byte-identical to one AlltoAllRows over every row; onChunk, when non-nil, is
// invoked after each chunk completes with its range — the per-chunk
// completion hook pipelined consumers build on.
func ChunkedAlltoAll(algo A2AAlgo, data [][]float64, gpusPerNode int, dims BlockDims, chunks int, onChunk func(c int, rr RowRange)) ([][]float64, Stats, error) {
	var st Stats
	b, err := dims.validate(data)
	if err != nil {
		return nil, st, err
	}
	p := len(data)
	out := make([][]float64, p)
	for d := 0; d < p; d++ {
		out[d] = make([]float64, b*p)
	}
	for c, rr := range SplitRows(dims.Rows, chunks) {
		cst, err := AlltoAllRows(algo, data, out, gpusPerNode, dims, rr)
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
