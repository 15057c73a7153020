package moe

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/gradsync"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// The plan builder. §4's generalized MoE layer is one schedule over
// {AlltoAll, AllGather, ReduceScatter, Experts} with the expert-sharding
// group width g as a parameter, and this file is that schedule once: the R
// ranks form nG = R/g expert-parallel groups of g expert-sharding members,
// group G owns the contiguous experts [G·Egg, (G+1)·Egg), Egg = g·E/R, and
// rank j is member j mod g of group j div g. EP and DenseSlots are g = 1,
// ESP is g = R, Hybrid any divisor. Per chunk c — a row range of every
// token-side rank's spad slot rows — the forward plan is
//
//	D      nG > 1: dispatch AlltoAll between groups on the shared inter
//	       stream. Lane m (member m of every group, ranks {q·g+m}) runs an
//	       nG-participant AlltoAll that moves each rank's slot rows to the
//	       group owning their experts;
//	AG(x)  g > 1: gather the members' rows inside each group, on that
//	       group's intra stream;
//	E      the two stages of the Expert contract: the stage-1 GEMMs over
//	       every gathered row, sharded over hidden COLUMNS g ways, then the
//	       stage-2 GEMMs over each member's own ROWS. At g = 1 the one member
//	       owns every column and both run back to back in one task E<c>; at
//	       g > 1 they are the tasks H and O around AG(h), the in-group gather
//	       of the column shards to full width;
//	RS(y)  g > 1: in-group ReduceScatter of the row-disjoint outputs — one
//	       present contributor per element, so the ring sum is exact;
//	C      nG > 1: combine AlltoAll between groups, back on inter.
//
// The backward plan is the adjoint chain C → AG(dy) → E (B1, column-sharded →
// AG(hidden grads) → B2, row-sharded) → RS(dx) → D, then each expert's
// full-block parameter-gradient reduction W once on its owner rank j = e/Eg
// from fully assembled buffers, with §5's emit
// points on the inter stream: 0 behind the first collective chain, c+1
// behind chunk c's last collective. Where there is no AlltoAll (g = R) the
// inter stream carries nothing else, so the AllReduce slices overlap the
// intra-stream collectives freely — §4's inter/intra co-scheduling.
//
// Every collective reads and writes the buffers themselves through block
// endpoints (comm/chunked.go); there is no wire layout, no pack stage and no
// staging copy. Bit-identity to the single-rank layer leans on one
// invariant: token-side rank i's slot row t of an expert sits at row i·spad+t
// of that expert's block — in the padded expert-major (E, Tpad, M) buffers
// and in every member's (Egg, Tpad, M) block alike — so assembled blocks are
// ordered exactly as the sequential layer's. The stage GEMMs then shard
// complete dot products (columns forward, rows backward) and never
// re-associate a reduction.
//
// The blocks are ragged: each pass refreshes its expert's fill, one past its
// last occupied slot (workspace.setFill), and the plan moves and computes
// the rows below it alone. Every block of an endpoint list points at its
// shard's filled-row count (comm.Block.Filled), every stage's window set is
// cut at the fill, and the W tasks reduce the filled rows; the plans, their
// chunk boundaries and their collective tasks stay what the capacity makes
// them, so a chunk with no filled row still runs its tasks, which consult
// the fault injector and move nothing. The rows past a fill would only have
// carried +0 inputs and output gradients — signed-zero terms in a weight
// gradient — so the bits are the capacity layout's.
//
// A sparse plan's token side is not a buffer at all: the forward's first
// collectives (D, or at nG = 1 AGx) gather each slot row straight from the
// layer's input x through the workspace's padded slot index, and the
// backward's (C, or AGd) gather w·dy rows through the index and the slot
// weights — the rows Order's Scatter and GatherGrad would have written, bit
// for bit (tokenRows). Only R = 1 and dense plans, with no collective to
// carry the layout, start from an expert-major buffer Order fills.
//
// The backward plan also runs the routing path's adjoint, which needs
// nothing the expert chain produces until its last step: the gate's
// backward G and, after the last chunk's dispatch adjoint, the Order adjoint
// S (ScatterGrad, the gate's dx added in). A dense plan's gate backward
// needs the dispatch-weight gradient, a product over the whole dScattered,
// so there S computes it and G follows S and adds the gate's dx.
//
// Streams: "inter" serializes the AlltoAll lanes (the NIC of Figs. 3–4),
// "intra:g<G>" group G's AllGather/ReduceScatter chain, "compute:<rank>"
// each rank's expert math, and "route" the backward's G and S — nothing
// else. Every chunk's collectives ahead of its first compute stage are
// issued before any later stage (the Fig. 3c/d ordering
// core.buildForwardLayer uses), so chunk c+1 is on the wire while chunk c
// computes.
//
// Plans are resident: each direction's plan is built once over the
// workspace buffers it runs on (passBufs), whose shape fixes the capacity,
// the degrees and g, and replayed as long as they are (a backward plan
// while its planKey holds too). Nothing a closure captures changes between
// passes: the expert passes are bound to the buffers once, when they are
// cut, and each forward re-arms them from the live parameters
// (ExpertPass.BeginForward); the routing operands are read through a
// holder in the workspace that each pass refreshes before its plan runs;
// and a fault decision is a function of (seed, task, attempt), which a
// replay keeps.

// groups is the group geometry of one pass, and the workspace's router
// fill its stages and blocks read (workspace.setFill).
type groups struct {
	R, g, nG   int // ranks, group width, group count
	eg, egg    int // experts per rank, per group
	mdim       int
	spad, tpad int   // slot rows per token-side rank, per expert block
	fill       []int // per expert: the rows of its block a pass computes
	shardFill  []int // per (expert, token-side rank): the shard's filled rows
}

func (w *World) groups(cache *WorldCache) groups {
	R, g := w.cfg.Ranks, w.g
	return groups{R: R, g: g, nG: R / g, eg: w.egrp, egg: w.egrp * g,
		mdim: w.layer.cfg.M, spad: cache.spad, tpad: cache.tpad, fill: cache.ws.fill, shardFill: cache.ws.shardFill}
}

// filled is the filled-row count of token-side rank i's shard of expert e's
// block, as the shard's blocks carry it.
func (gm groups) filled(e, i int) *int { return &gm.shardFill[e*gm.R+i] }

// groupGpn models one contiguous member group's node shape for Stats and
// the ring: consecutive global ranks, so a group either fits inside one
// node or spans whole nodes; anything irregular degrades to all-inter
// attribution.
func (gm groups) groupGpn(gpn int) int {
	switch {
	case gpn >= gm.g:
		return gm.g
	case gm.g%gpn == 0:
		return gpn
	}
	return 1
}

// laneGpn models one dispatch lane's node shape: lane members sit g apart,
// so consecutive lane members share a node only when each node holds whole
// groups (g divides GPUsPerNode); otherwise every lane hop is inter-node.
func (gm groups) laneGpn(gpn int) int {
	if gpn%gm.g == 0 {
		if ln := gpn / gm.g; gm.nG%ln == 0 {
			return ln
		}
	}
	return 1
}

// shard is token-side rank i's slot rows of block le in an (·, Tpad, M)
// buffer whose block 0 is expert e0's: rows [i·spad, (i+1)·spad), filled as
// the router filled them.
func (gm groups) shard(buf *tensor.Tensor, e0, le, i int) comm.Block {
	off := (le*gm.tpad + i*gm.spad) * gm.mdim
	b := comm.Tile(buf.Data()[off:off+gm.spad*gm.mdim], gm.mdim)
	b.Filled = gm.filled(e0+le, i)
	return b
}

// tokenRows is the token side a pass starts from: the padded expert-major
// (E, Tpad, M) buffer gin, or, with gin nil, the layer's token rows as the
// padded slot index (E × Tpad, −1 for an empty or pad slot) lays them out,
// each times its slot weight where scale is set — a sparse plan at R > 1,
// whose collectives read x, or dy, through them (passBufs.bind).
type tokenRows struct {
	gin   *tensor.Tensor
	index []int
	scale []float64
}

// rows is token-side rank i's slot rows of expert e: its shard of gin, or
// that span of the index (and scale) as an indexed block.
func (gm groups) rows(src tokenRows, e, i int) comm.Block {
	if src.gin != nil {
		return gm.shard(src.gin, 0, e, i)
	}
	off := e*gm.tpad + i*gm.spad
	b := comm.Block{Width: gm.mdim, Stride: gm.mdim, Index: src.index[off : off+gm.spad], Filled: gm.filled(e, i)}
	if src.scale != nil {
		b.Scale = src.scale[off : off+gm.spad]
	}
	return b
}

// tokenSide lists lane m's token side in AlltoAll order: participant q is
// rank i = q·g+m, and its block e — peer group e/Egg, group expert e%Egg —
// is expert e's rows of rank i. With one group it is member m's own rows.
func (gm groups) tokenSide(src tokenRows, m int) [][]comm.Block {
	out := make([][]comm.Block, gm.nG)
	for q := range out {
		out[q] = make([]comm.Block, gm.nG*gm.egg)
		for e := range out[q] {
			out[q][e] = gm.rows(src, e, q*gm.g+m)
		}
	}
	return out
}

// memberSide lists lane m's side of the members' (Egg, Tpad, M) blocks in
// AlltoAll order: participant G is rank G·g+m, and its block q·Egg+le — peer
// q, group expert le — is the rows of rank q·g+m at their canonical offset.
func (gm groups) memberSide(blocks []*tensor.Tensor, m int) [][]comm.Block {
	out := make([][]comm.Block, gm.nG)
	for G := range out {
		out[G] = make([]comm.Block, 0, gm.nG*gm.egg)
		for q := 0; q < gm.nG; q++ {
			for le := 0; le < gm.egg; le++ {
				out[G] = append(out[G], gm.shard(blocks[G*gm.g+m], G*gm.egg, le, q*gm.g+m))
			}
		}
	}
	return out
}

// memberRows lists, in group G's (Egg, Tpad, M) buffer, the slot rows that
// are member m's to compute and return: those of the ranks q·g+m, for every
// group expert.
func (gm groups) memberRows(buf *tensor.Tensor, G, m int) []comm.Block {
	out := make([]comm.Block, 0, gm.egg*gm.nG)
	for le := 0; le < gm.egg; le++ {
		for q := 0; q < gm.nG; q++ {
			out = append(out, gm.shard(buf, G*gm.egg, le, q*gm.g+m))
		}
	}
	return out
}

// colShard returns member m's hidden-column range under the uniform ceiling
// allocation of w columns over g members: trailing members may own fewer
// (or zero) columns.
func colShard(w, m, g int) (lo, hi int) {
	per := (w + g - 1) / g
	return min(m*per, w), min((m+1)*per, w)
}

// memberCols lists member m's column shard of a group G rank's hidden
// exchange buffers — per group expert a (bands·Tpad, W) tensor — as strided
// blocks, one per (expert, band, token-side rank) so a chunk's row window
// selects the same rows of every rank's shard.
func (gm groups) memberCols(hid []*tensor.Tensor, G, m int) []comm.Block {
	var out []comm.Block
	for le, h := range hid {
		width := h.Dim(1)
		cl, ch := colShard(width, m, gm.g)
		for row := 0; row < h.Dim(0); row += gm.spad {
			out = append(out, comm.Block{Data: h.Data()[row*width+cl : (row+gm.spad)*width-(width-ch)], Width: ch - cl, Stride: width,
				Filled: gm.filled(G*gm.egg+le, row/gm.spad%gm.R)})
		}
	}
	return out
}

// ends is one collective's pair of endpoint lists.
type ends struct{ src, dst [][]comm.Block }

// passBufs is one direction's share of a workspace: the per-rank buffers
// between the pass's token side and its expert-major output buffer, and
// every collective's endpoint lists over them. Both depend only on the
// workspace's buffers and shape, so they are cut with the workspace and a
// warm pass builds its plan over the same lists; an indexed token side's
// blocks are pointed at each pass's tokens (bind).
type passBufs struct {
	from, to int                // the workspace slots the buffers occupy
	src      tokenRows          // what the pass starts from
	gout     *tensor.Tensor     // the (E, Tpad, M) buffer it ends in
	in, out  []*tensor.Tensor   // per rank (Egg, Tpad, M): its group's expert inputs and outputs
	xs, outs [][]*tensor.Tensor // [rank][group expert] (Tpad, M) views of in and out
	hid      [][]*tensor.Tensor // [rank][group expert] (bands·Tpad, W) hidden exchange buffers

	disp, comb      []ends // per lane: src → in and out → gout; nG > 1
	agIn, agHid, rs []ends // per group: the rows of in, the columns of hid, the rows of out; g > 1

	plan *layerPlan // the direction's resident plan over these buffers; nil until built
}

// cutPass returns a direction's buffers and endpoint lists for the
// workspace to hold: the held ones when they were cut over this token side
// and output buffer at this point of the slot sequence, new ones otherwise.
// The forward's also hold what each expert pass keeps to the end of the
// backward, and cutting them begins the passes over them, into the
// workspace's holder: a warm pass finds its expert passes bound.
func (w *World) cutPass(ws *workspace, held *passBufs, gm groups, src tokenRows, gout *tensor.Tensor, fwd bool) *passBufs {
	if held != nil && held.from == ws.next && held.src.gin == src.gin && held.gout == gout {
		ws.retake(held.to)
		return held
	}
	// One rank is the whole layer: its blocks are the expert-major buffers
	// themselves, and nothing moves.
	b := &passBufs{from: ws.next, src: src, gout: gout, in: []*tensor.Tensor{src.gin}, out: []*tensor.Tensor{gout}}
	if gm.R > 1 {
		b.in = ws.blocks(gm.R, gm.egg, gm.tpad, gm.mdim)
		b.out = ws.blocks(gm.R, gm.egg, gm.tpad, gm.mdim)
	}
	if gm.nG > 1 {
		for m := 0; m < gm.g; m++ {
			b.disp = append(b.disp, ends{gm.tokenSide(src, m), gm.memberSide(b.in, m)})
			b.comb = append(b.comb, ends{gm.memberSide(b.out, m), gm.tokenSide(tokenRows{gin: gout}, m)})
		}
	}
	b.hid = make([][]*tensor.Tensor, gm.R)
	b.xs, b.outs = make([][]*tensor.Tensor, gm.R), make([][]*tensor.Tensor, gm.R)
	bands := Expert.BwdBands
	if fwd {
		bands = Expert.FwdBands
	}
	passes := ws.expertPasses(gm.R, gm.egg)
	for j := range b.hid {
		for le, ex := range w.groupExperts(gm, j) {
			b.xs[j] = append(b.xs[j], slotBlock(b.in[j], le, gm.tpad))
			b.outs[j] = append(b.outs[j], slotBlock(b.out[j], le, gm.tpad))
			b.hid[j] = append(b.hid[j], ws.tensor(bands(ex)*gm.tpad, ex.HiddenWidth()))
			if fwd {
				cl, ch := colShard(ex.HiddenWidth(), j%gm.g, gm.g)
				passes[j][le] = ex.Begin(PassBufs{
					X: b.xs[j][le], Out: b.outs[j][le], Hidden: b.hid[j][le],
					Scratch: ws.take(ex.ScratchElems(gm.tpad, cl, ch)).data, Cl: cl, Ch: ch, Pool: w.pool,
				})
			}
		}
	}
	for lo := 0; gm.g > 1 && lo < gm.R; lo += gm.g {
		b.cutGroup(gm, lo)
	}
	b.to = ws.next
	return b
}

// cutGroup appends the in-group endpoint lists of the group whose member 0
// is rank lo. Member s's own rows are in its block once a dispatch landed
// them there, and on the token side itself when the one group is the whole
// world; either way every member receives them at the same offsets of its
// own block. A member contributes to a ReduceScatter segment only its own
// rows — every other contribution is absent — so where the rows stay in the
// block they are reduced in place.
func (b *passBufs) cutGroup(gm groups, lo int) {
	var agIn, agHid, rs ends
	k, G := gm.egg*gm.nG, lo/gm.g // row blocks per member, the group
	for s := 0; s < gm.g; s++ {
		var own []comm.Block
		ret := b.out[lo+s]
		if gm.nG == 1 {
			own, ret = gm.tokenSide(b.src, s)[0], b.gout
		} else {
			own = gm.memberRows(b.in[lo+s], G, s)
		}
		agIn.src = append(agIn.src, own)
		agHid.src = append(agHid.src, gm.memberCols(b.hid[lo+s], G, s))
		rs.dst = append(rs.dst, gm.memberRows(ret, G, s))
		var in, hid []comm.Block
		for c := 0; c < gm.g; c++ {
			in = append(in, gm.memberRows(b.in[lo+s], G, c)...)
			hid = append(hid, gm.memberCols(b.hid[lo+s], G, c)...)
		}
		part := make([]comm.Block, gm.g*k)
		copy(part[s*k:], gm.memberRows(b.out[lo+s], G, s))
		agIn.dst, agHid.dst, rs.src = append(agIn.dst, in), append(agHid.dst, hid), append(rs.src, part)
	}
	b.agIn, b.agHid, b.rs = append(b.agIn, agIn), append(b.agHid, agHid), append(b.rs, rs)
}

// bind points an indexed token side's blocks — the dispatch lanes' sources,
// or at one group the AllGather's — at this pass's tokens, x or dy as (N, M)
// rows; a buffer token side is left as cut.
func (b *passBufs) bind(tokens []float64) {
	if b.src.gin != nil {
		return
	}
	side := b.disp
	if side == nil {
		side = b.agIn
	}
	for _, e := range side {
		for _, list := range e.src {
			for i := range list {
				list[i].Data = tokens
			}
		}
	}
}

// groupExperts returns the experts of rank j's group in block order — at
// g = 1 the rank's own.
func (w *World) groupExperts(gm groups, j int) []Expert {
	return w.layer.cfg.Experts[j/gm.g*gm.egg:][:gm.egg]
}

// macsEst is a structural duration estimate (MMACs) of experts over rows
// for Simulate; the repository benchmark's moe.sim_gap probe replaces it
// with measured durations via SimulateWith. Summing per expert matters
// when the expert mix is heterogeneous.
func macsEst(experts []Expert, rows int) float64 {
	macs := 0.0
	for _, ex := range experts {
		macs += ex.FwdMACs(rows)
	}
	return macs / 1e6
}

// estElems scales an element count into the same arbitrary unit space.
func estElems(n int) float64 { return float64(n) / 1e6 }

// rowsEst estimates an in-group row collective: (g−1)·g messages of one
// member's rows — the same total-elements-moved convention as laneTask's.
func (gm groups) rowsEst(rr comm.RowRange) func(int) float64 {
	est := estElems((gm.g - 1) * gm.g * gm.nG * gm.egg * rr.Len() * gm.mdim)
	return func(int) float64 { return est }
}

// colsEst estimates group G's hidden AllGather the same way, at the ⌈W/g⌉
// columns a member is allotted.
func (b *passBufs) colsEst(gm groups, rr comm.RowRange) func(int) float64 {
	return func(G int) float64 {
		elems := 0
		for _, h := range b.hid[G*gm.g] {
			elems += h.Dim(0) / gm.spad * rr.Len() * ((h.Dim(1) + gm.g - 1) / gm.g)
		}
		return estElems((gm.g - 1) * gm.g * elems)
	}
}

// after makes rank j wait for its own entry of a per-rank task vector; a nil
// vector is nothing to wait for.
func after(ids []int) func(j int) []int {
	return func(j int) []int {
		if ids == nil {
			return nil
		}
		return []int{ids[j]}
	}
}

// computeTasks adds one expert-compute task per rank — label[rank], on the
// rank's compute stream, waiting for deps(rank) — that runs fn(rank, i) for
// each of the rank's n experts, and returns the task ids. At one rank they
// fan out over the kernel pool; beside other ranks' tasks they run one after
// another in index order. The bodies are built here, with the plan, so an
// execution allocates none.
func (w *World) computeTasks(p *layerPlan, label string, est func(j int) float64, deps func(j int) []int, n int, fn func(j, i int)) []int {
	ids := make([]int, w.cfg.Ranks)
	for j := range ids {
		var body func() error
		if w.cfg.Ranks == 1 {
			each := func(i int) { fn(j, i) }
			body = func() error { w.pool.ParallelFor(n, each); return nil }
		} else {
			body = func() error {
				for i := range n {
					fn(j, i)
				}
				return nil
			}
		}
		ids[j] = p.Add(fmt.Sprintf("%s[%d]", label, j), KindExpert, w.computeStreams[j], est(j), body, deps(j)...)
	}
	return ids
}

// laneTask adds one chunk's dispatch or combine step: the g per-lane
// AlltoAll collectives issued back to back on the shared inter stream,
// accumulating traffic stats. An injected fault fails the task before its
// body runs (fault.Plan.Check), so a retry repeats the same copies from
// untouched sources.
func (w *World) laneTask(p *layerPlan, gm groups, label string, lanes []ends, rr comm.RowRange, deps []int) int {
	gpn := gm.laneGpn(w.cfg.GPUsPerNode)
	return p.Add(label, KindA2A, "inter", estElems(gm.R*gm.R*gm.eg*rr.Len()*gm.mdim), func() error {
		for _, ln := range lanes {
			st, err := comm.AlltoAllBlocks(w.cfg.Algo, ln.src, ln.dst, gpn, rr)
			if err != nil {
				return err
			}
			w.addStats(st)
		}
		return nil
	}, deps...)
}

// groupTasks adds one chunk's in-group collective — comm.AllGatherBlocks or
// comm.ReduceScatterBlocks over each group's endpoint lists — as one task
// per group on that group's intra stream, waiting for its members' entries
// of deps. It returns, per rank, the task of the rank's group.
func (w *World) groupTasks(p *layerPlan, gm groups, label, kind string,
	coll func([][]comm.Block, [][]comm.Block, int, comm.RowRange) (comm.Stats, error),
	lists []ends, est func(G int) float64, rr comm.RowRange, deps []int) []int {
	ids := make([]int, gm.R)
	gpn := gm.groupGpn(w.cfg.GPUsPerNode)
	for G, e := range lists {
		stream := w.groupStreams[G]
		var members []int
		if deps != nil {
			members = deps[G*gm.g:][:gm.g]
		}
		id := p.Add(fmt.Sprintf("%s[g%d]", label, G), kind, stream, est(G), func() error {
			st, err := coll(e.src, e.dst, gpn, rr)
			if err != nil {
				return err
			}
			w.addStats(st)
			return nil
		}, members...)
		for m := 0; m < gm.g; m++ {
			ids[G*gm.g+m] = id
		}
	}
	return ids
}

// arrive adds phase 1 of a pass: for every chunk, the collectives ahead of
// its first compute stage — the AlltoAll between groups, then the in-group
// row AllGather — chunk after chunk. It returns landed[c][j], the task after
// which chunk c's rows are in rank j's input block (nil: they were never
// anywhere else).
func (w *World) arrive(p *layerPlan, gm groups, b *passBufs, ranges []comm.RowRange, a2a, ag string) [][]int {
	landed := make([][]int, len(ranges))
	for c, rr := range ranges {
		if gm.nG > 1 {
			id := w.laneTask(p, gm, fmt.Sprintf("%s[%d]", a2a, c), b.disp, rr, nil)
			landed[c] = make([]int, gm.R)
			for j := range landed[c] {
				landed[c][j] = id
			}
		}
		if gm.g > 1 {
			landed[c] = w.groupTasks(p, gm, fmt.Sprintf("%s%d", ag, c), KindAG, comm.AllGatherBlocks, b.agIn, gm.rowsEst(rr), rr, landed[c])
		}
	}
	return landed
}

// leave adds the collectives behind chunk c's last compute stage, whose
// per-rank tasks are done: the in-group ReduceScatter, then the AlltoAll
// between groups. It returns the tasks after which chunk c's rows are in
// the pass's expert-major output buffer.
func (w *World) leave(p *layerPlan, gm groups, b *passBufs, c int, rr comm.RowRange, rs, a2a string, done []int) []int {
	if gm.g > 1 {
		done = w.groupTasks(p, gm, fmt.Sprintf("%s%d", rs, c), KindRS, comm.ReduceScatterBlocks, b.rs, gm.rowsEst(rr), rr, done)
	}
	// One entry per group names every task there is to wait for.
	var deps []int
	for j := 0; j < gm.R; j += gm.g {
		deps = append(deps, done[j])
	}
	if gm.nG > 1 {
		return []int{w.laneTask(p, gm, fmt.Sprintf("%s[%d]", a2a, c), b.comb, rr, deps)}
	}
	return deps
}

// windows is chunk rr's rows in the shards of the token-side ranks first,
// first+step, … < R of a block, as one window set. A member's stage over
// every gathered row visits every rank (step 1); a stage over its own rows
// the ranks i ≡ m (mod g), which at g = 1 is the same.
func (gm groups) windows(first, step int, rr comm.RowRange) tensor.Windows {
	return tensor.Windows{Lo: first*gm.spad + rr.Lo, N: rr.Len(), Stride: step * gm.spad, Count: (gm.R - first + step - 1) / step}
}

// expertStages adds chunk c's expert compute over the rows rr of every
// token-side rank's shard, forward or backward alike: a member runs hidden,
// its hidden columns, on every gathered row, then output on its own rows,
// over full-width hidden rows. Each stage is one call per pass over the
// chunk's window set — R windows for hidden, nG for output — cut at the
// expert's fill, so each of its GEMMs is one product per chunk, not one per
// source rank, over the rows the router filled. At g > 1 those
// are two tasks per rank (names 0 and 2) around the in-group AllGather of
// the column shards (name 1); at g = 1 the one member owns every column,
// nothing is exchanged, and both run back to back in one task E<c>. scale is
// the pass's cost in forward passes. It returns each rank's last task.
func (w *World) expertStages(p *layerPlan, gm groups, b *passBufs, passes [][]ExpertPass, c int, rr comm.RowRange, deps func(j int) []int,
	names [3]string, scale float64, hidden, output func(ps ExpertPass, w tensor.Windows)) []int {
	hiddenStage := func(j, le int) {
		hidden(passes[j][le], gm.windows(0, 1, rr).Cut(gm.fill[j/gm.g*gm.egg+le]))
	}
	outputStage := func(j, le int) {
		output(passes[j][le], gm.windows(j%gm.g, gm.g, rr).Cut(gm.fill[j/gm.g*gm.egg+le]))
	}
	hiddenEst := func(j int) float64 {
		return scale * macsEst(w.groupExperts(gm, j), gm.R*rr.Len()) / (2 * float64(gm.g))
	}
	outputEst := func(j int) float64 { return scale * macsEst(w.groupExperts(gm, j), gm.nG*rr.Len()) / 2 }
	if gm.g == 1 {
		return w.computeTasks(p, fmt.Sprintf("E%d", c), func(j int) float64 { return hiddenEst(j) + outputEst(j) }, deps, gm.egg,
			func(j, le int) { hiddenStage(j, le); outputStage(j, le) })
	}
	h := w.computeTasks(p, fmt.Sprintf("%s%d", names[0], c), hiddenEst, deps, gm.egg, hiddenStage)
	h = w.groupTasks(p, gm, fmt.Sprintf("%s%d", names[1], c), KindAG, comm.AllGatherBlocks, b.agHid, b.colsEst(gm, rr), rr, h)
	return w.computeTasks(p, fmt.Sprintf("%s%d", names[2], c), outputEst, after(h), gm.egg, outputStage)
}

// layerPlan is one direction's resident stream plan, kept with the
// workspace buffers it runs on (passBufs.plan): built once, replayed while
// its key (a backward plan's; a forward plan's is zero) holds.
type layerPlan struct {
	*runtime.Plan
	key planKey
	ran bool // executed once: the GEMM scratch free-list is sized for it
}

// planKey is what a backward plan's tasks depend on beyond the buffers it
// runs on: the token count, whether the routing is dense, and the §5
// schedule and stack position whose hidden slices it runs (nil outside a
// training step). A schedule is immutable, so the pointer stands for its
// slices.
type planKey struct {
	tokens int
	dense  bool
	sched  *gradsync.Plan
	layer  int
}

// forwardPlan readies a forward pass from the token side src — over x's
// rows, (N, M) flat — into the padded combined buffer: it re-arms the expert
// passes in the workspace's holder, per rank one for each expert of its
// group, which the backward continues, and returns the forward plan over
// the buffers, built once when they are cut.
func (w *World) forwardPlan(cache *WorldCache, src tokenRows, x []float64, combinedPad *tensor.Tensor) *layerPlan {
	gm := w.groups(cache)
	ws := cache.ws
	b := w.cutPass(ws, ws.fwd, gm, src, combinedPad, true)
	b.bind(x)
	ws.fwd = b
	passes := ws.passes
	for _, ps := range passes {
		for _, p := range ps {
			p.BeginForward()
		}
	}
	if b.plan == nil {
		b.plan = w.buildForward(gm, b, passes)
	}
	return b.plan
}

// buildForward builds the forward schedule over b: everything that turns
// the token side into the padded combined buffer.
func (w *World) buildForward(gm groups, b *passBufs, passes [][]ExpertPass) *layerPlan {
	p := &layerPlan{Plan: runtime.NewPlan()}
	ranges := comm.SplitRows(gm.spad, w.cfg.PipelineDegree)
	landed := w.arrive(p, gm, b, ranges, "D", "AGx")
	for c, rr := range ranges {
		done := w.expertStages(p, gm, b, passes, c, rr, after(landed[c]), [3]string{"H", "AGh", "O"}, 1,
			ExpertPass.ForwardHidden, ExpertPass.ForwardOut)
		w.leave(p, gm, b, c, rr, "RSy", "C", done)
	}
	return p
}

// backwardPlan readies a backward pass from the output-gradient token side
// src — over dy's rows, (N, M) flat — into the padded dScattered buffer under
// the call c: it begins the expert passes' backward and returns the
// workspace's backward plan, replayed when its key holds — built otherwise.
func (w *World) backwardPlan(cache *WorldCache, src tokenRows, dy []float64, dScatteredPad *tensor.Tensor, c call) *layerPlan {
	gm := w.groups(cache)
	ws := cache.ws
	b := w.cutPass(ws, ws.bwd, gm, src, dScatteredPad, false)
	b.bind(dy)
	ws.bwd = b
	passes := ws.passes
	for j := range passes {
		for le, ps := range passes[j] {
			// Rank j's output gradient and input gradient of its group's expert le.
			ps.BeginBackward(b.xs[j][le], b.outs[j][le], b.hid[j][le], c.step)
		}
	}
	plan := cache.pr.plan
	key := planKey{tokens: cache.pr.flat.Dim(0), dense: plan.IsDense(), sched: c.sched, layer: c.layer}
	if b.plan == nil || b.plan.key != key {
		b.plan = w.buildBackward(gm, b, passes, &ws.route, key)
	}
	return b.plan
}

// syncPoints is how many §5 emit points the backward plan over cache
// offers: one before its first chunk and one after each (buildBackward).
func (w *World) syncPoints(cache *WorldCache) int {
	return min(max(w.cfg.PipelineDegreeBwd, 1), max(cache.spad, 1)) + 1
}

// buildBackward builds the backward schedule over b: everything that turns
// the output gradient's token side into the padded dScattered buffer and the
// token gradient rt.dx, puts each expert's parameter gradients into its
// Param.G on its owner rank (written over it during a training step, added
// outside one) and the gate's into the gate's Param.G, and runs the §5
// slices key.sched hides in this layer's plan at its emit points.
func (w *World) buildBackward(gm groups, b *passBufs, passes [][]ExpertPass, rt *routeState, key planKey) *layerPlan {
	p := &layerPlan{Plan: runtime.NewPlan(), key: key}
	ranges := comm.SplitRows(gm.spad, w.cfg.PipelineDegreeBwd)
	var hidden [][]gradsync.Slice
	if key.sched != nil {
		hidden = key.sched.Hidden(key.layer)
	}
	emit := func(pt int) {
		if pt >= len(hidden) {
			return
		}
		for _, sl := range hidden[pt] {
			// The estimate lives in the same elements/1e6 unit space as the
			// plan's other tasks (estElems), so the plan's structural
			// Simulate stays consistent. Like the §5 partition, it prices
			// the paper's AllReduce: ~2 passes. Only stream order schedules
			// a slice: its gradient was written by a plan already done.
			p.Add(sl.Name, gradsync.KindAllReduce, "inter", float64(2*sl.Len())/1e6,
				func() error { key.sched.Run(sl); return nil })
		}
	}
	l := w.layer
	E := len(l.cfg.Experts)
	gateEst := 2 * float64(key.tokens*gm.mdim*E) / 1e6 // two N·M·E products, in MMACs
	gate := -1
	if !key.dense {
		// The gate's backward needs only the slot-weight gradient the
		// backward prolog left before the plan: it waits for nothing.
		gate = p.Add("G", sim.KindOthers, routeStream, gateEst, func() error { rt.gate(l); return nil })
	}

	// The adjoint of the forward's last collectives comes first.
	landed := w.arrive(p, gm, b, ranges, "C", "AGd")

	// Gradient-sync emit point 0: AllReduce slices enqueued here run on the
	// inter stream behind the combine-gradient chain, in the slack while the
	// expert chunks compute, before the first dispatch-gradient AlltoAll.
	emit(0)

	// dX rows only; the weight gradients wait for W. Adjoint stage 2 is
	// column-sharded over every gathered row, adjoint stage 1 row-sharded
	// over the member's own.
	var last, landedOut []int // per rank its latest expert task; the last chunk's final tasks
	for c, rr := range ranges {
		last = w.expertStages(p, gm, b, passes, c, rr, after(landed[c]), [3]string{"B1", "AGb", "B2"}, 2,
			ExpertPass.BackwardHidden, ExpertPass.BackwardIn)
		landedOut = w.leave(p, gm, b, c, rr, "RSd", "D", last)
		// Emit point c+1: slices here trail chunk c's last gradient
		// collective, overlapping later expert chunks.
		emit(c + 1)
	}

	// S — the Order adjoint, once the last chunk's rows are in dScattered
	// (stream order holds the earlier chunks' behind them). A dense plan's
	// gate backward needs S's dispatch-weight gradient and follows it.
	scatterEst := estElems(gm.R * gm.egg * gm.tpad * gm.mdim)
	if key.dense {
		s := p.Add("S", sim.KindOthers, routeStream, scatterEst+float64(E*gm.tpad*key.tokens*gm.mdim)/1e6,
			func() error { rt.scatter(l); return nil }, landedOut...)
		p.Add("G", sim.KindOthers, routeStream, gateEst, func() error { rt.gate(l); return nil }, s)
	} else {
		p.Add("S", sim.KindOthers, routeStream, scatterEst, func() error { rt.scatter(l); return nil }, append(landedOut, gate)...)
	}

	// W — the deferred full-block parameter-gradient reductions, off the
	// communication critical path (§4.1's W-grad tasks), each expert on its
	// owner rank (member m of a group owns the group's experts
	// [m·Eg, (m+1)·Eg)) from its own fully assembled buffers, over their
	// filled rows. The last chunk's task on a rank implies every earlier one
	// (stream order).
	w.computeTasks(p, "W", func(j int) float64 { return macsEst(w.layer.cfg.Experts[j*gm.eg:][:gm.eg], gm.tpad) }, after(last), gm.eg, func(j, i int) {
		le := j%gm.g*gm.eg + i
		e := j/gm.g*gm.egg + le
		passes[j][le].Finish(gm.fill[e])
	})
	return p
}

// routeStream is the backward plan's stream for the routing path's adjoint.
const routeStream = "route"

// routeState is one backward pass's per-pass state, held by the workspace
// and set by each pass before its plan runs: the routing-path operands the
// route stream's tasks read, and the pass's call, whose frozen rule the gate
// task reads.
type routeState struct {
	dx, gateDx *tensor.Tensor // (N, M): the token gradient, the gate's part of it
	dScattered *tensor.Tensor // (E, Tpad, M) the experts' input gradient
	x          *tensor.Tensor // (N, M) the layer's flattened input
	plan       *DispatchPlan
	rc         *RouteCache
	grad       *PlanGrad
	call
}

// gate runs the gate's backward into gateDx; on a dense plan, which runs it
// last, it also adds gateDx into dx. A frozen router runs no backward: its
// part of dx is +0.
func (rt *routeState) gate(l *MOELayer) {
	if rt.frozen {
		clear(rt.gateDx.Data())
		return
	}
	l.cfg.Gate.Backward(rt.gateDx, rt.rc, rt.grad)
	if rt.plan.IsDense() {
		tensor.AddInPlace(rt.dx, rt.gateDx)
	}
}

// scatter runs the Order adjoint into dx: then, on a hard plan, whose gate
// backward has run, it adds gateDx; on a dense plan it computes the
// dispatch-weight gradient the gate backward reads.
func (rt *routeState) scatter(l *MOELayer) {
	l.scatterAdjoint(rt.dx, rt.dScattered, rt.x, rt.plan, rt.grad)
	if !rt.plan.IsDense() {
		tensor.AddInPlace(rt.dx, rt.gateDx)
	}
}
