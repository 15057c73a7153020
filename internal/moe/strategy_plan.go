package moe

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/runtime"
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
//	E      the two stages of the staged expert contract (StagedExpert): the
//	       stage-1 GEMMs over every gathered row, sharded over hidden COLUMNS
//	       g ways, then the stage-2 GEMMs over each member's own ROWS. At
//	       g = 1 the one member owns every column and both run back to back
//	       in one task E<c>; at g > 1 they are the tasks H and O around
//	       AG(h), the in-group gather of the column shards to full width;
//	RS(y)  g > 1: in-group ReduceScatter of the row-disjoint outputs — one
//	       present contributor per element, so the ring sum is exact;
//	C      nG > 1: combine AlltoAll between groups, back on inter.
//
// The backward plan is the adjoint chain C → AG(dy) → E (B1, column-sharded →
// AG(hidden grads) → B2, row-sharded) → RS(dx) → D, then each expert's
// full-block parameter-gradient reduction W once on its owner rank j = e/Eg
// (the RankGrads mapping) from fully assembled buffers, with §5's emit
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
// Streams: "inter" serializes the AlltoAll lanes (the NIC of Figs. 3–4),
// "intra:g<G>" group G's AllGather/ReduceScatter chain, "compute:<rank>"
// each rank's expert math — nothing else. Every chunk's collectives ahead
// of its first compute stage are issued before any later stage (the
// Fig. 3c/d ordering core.buildForwardLayer uses), so chunk c+1 is on the
// wire while chunk c computes. A layer holding an adapted plain Expert
// computes one range per pass (computeRange); its communication stays chunked.

// groups is the group geometry of one pass.
type groups struct {
	R, g, nG   int // ranks, group width, group count
	eg, egg    int // experts per rank, per group
	mdim       int
	spad, tpad int // slot rows per token-side rank, per expert block
}

func (w *World) groups(cache *WorldCache) groups {
	R, g := w.cfg.Ranks, w.pl.g
	return groups{R: R, g: g, nG: R / g, eg: w.egrp, egg: w.egrp * g,
		mdim: w.layer.cfg.M, spad: cache.spad, tpad: cache.tpad}
}

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

// shard is token-side rank i's slot rows of expert block e in an
// (·, Tpad, M) buffer: rows [i·spad, (i+1)·spad).
func (gm groups) shard(buf *tensor.Tensor, e, i int) comm.Block {
	off := (e*gm.tpad + i*gm.spad) * gm.mdim
	return comm.Tile(buf.Data()[off:off+gm.spad*gm.mdim], gm.mdim)
}

// tokenSide lists lane m's side of an expert-major (E, Tpad, M) buffer in
// AlltoAll order: participant q is rank i = q·g+m, and its block e — peer
// group e/Egg, group expert e%Egg — is expert e's rows of rank i.
func (gm groups) tokenSide(global *tensor.Tensor, m int) [][]comm.Block {
	out := make([][]comm.Block, gm.nG)
	for q := range out {
		out[q] = make([]comm.Block, gm.nG*gm.egg)
		for e := range out[q] {
			out[q][e] = gm.shard(global, e, q*gm.g+m)
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
				out[G] = append(out[G], gm.shard(blocks[G*gm.g+m], le, q*gm.g+m))
			}
		}
	}
	return out
}

// memberRows lists, in an (Egg, Tpad, M) buffer, the slot rows that are
// member m's to compute and return: those of the ranks q·g+m, for every
// group expert.
func (gm groups) memberRows(buf *tensor.Tensor, m int) []comm.Block {
	out := make([]comm.Block, 0, gm.egg*gm.nG)
	for le := 0; le < gm.egg; le++ {
		for q := 0; q < gm.nG; q++ {
			out = append(out, gm.shard(buf, le, q*gm.g+m))
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

// memberCols lists member m's column shard of a rank's hidden exchange
// buffers — per group expert a (bands·Tpad, W) tensor — as strided blocks,
// one per (expert, band, token-side rank) so a chunk's row window selects
// the same rows of every rank's shard.
func (gm groups) memberCols(hid []*tensor.Tensor, m int) []comm.Block {
	var out []comm.Block
	for _, h := range hid {
		width := h.Dim(1)
		cl, ch := colShard(width, m, gm.g)
		for row := 0; row < h.Dim(0); row += gm.spad {
			out = append(out, comm.Block{Data: h.Data()[row*width+cl : (row+gm.spad)*width-(width-ch)], Width: ch - cl, Stride: width})
		}
	}
	return out
}

// ends is one collective's pair of endpoint lists.
type ends struct{ src, dst [][]comm.Block }

// passBufs is one direction's share of a workspace: the per-rank buffers
// between the two expert-major buffers of the pass, and every collective's
// endpoint lists over them. Both depend only on the workspace's buffers and
// shape, so they are cut with the workspace and a warm pass builds its plan
// over the same lists.
type passBufs struct {
	from, to  int                // the workspace slots the buffers occupy
	gin, gout *tensor.Tensor     // the (E, Tpad, M) buffers the pass starts from and ends in
	in, out   []*tensor.Tensor   // per rank (Egg, Tpad, M): its group's expert inputs and outputs
	hid       [][]*tensor.Tensor // [rank][group expert] (bands·Tpad, W) hidden exchange buffers
	scratch   [][][]float64      // [rank][group expert] pass-private memory; forward only

	disp, comb      []ends // per lane: gin → in and out → gout; nG > 1
	agIn, agHid, rs []ends // per group: the rows of in, the columns of hid, the rows of out; g > 1
}

// cutPass returns a direction's buffers and endpoint lists for the
// workspace to hold: the held ones when they were cut over these
// expert-major buffers at this point of the slot sequence, new ones
// otherwise. The forward's also hold what each expert pass keeps to the end
// of the backward.
func (w *World) cutPass(ws *workspace, held *passBufs, gm groups, gin, gout *tensor.Tensor, fwd bool) *passBufs {
	if held != nil && held.from == ws.next && held.gin == gin && held.gout == gout {
		ws.retake(held.to)
		return held
	}
	// One rank is the whole layer: its blocks are the expert-major buffers
	// themselves, and nothing moves.
	b := &passBufs{from: ws.next, gin: gin, gout: gout, in: []*tensor.Tensor{gin}, out: []*tensor.Tensor{gout}}
	if gm.R > 1 {
		b.in = ws.blocks(gm.R, gm.egg, gm.tpad, gm.mdim)
		b.out = ws.blocks(gm.R, gm.egg, gm.tpad, gm.mdim)
	}
	if gm.nG > 1 {
		for m := 0; m < gm.g; m++ {
			b.disp = append(b.disp, ends{gm.tokenSide(gin, m), gm.memberSide(b.in, m)})
			b.comb = append(b.comb, ends{gm.memberSide(b.out, m), gm.tokenSide(gout, m)})
		}
	}
	b.hid, b.scratch = make([][]*tensor.Tensor, gm.R), make([][][]float64, gm.R)
	bands := StagedExpert.BwdBands
	if fwd {
		bands = StagedExpert.FwdBands
	}
	for j := range b.hid {
		for _, se := range w.groupStaged(gm, j) {
			b.hid[j] = append(b.hid[j], ws.tensor(bands(se)*gm.tpad, se.HiddenWidth()))
			if fwd {
				cl, ch := colShard(se.HiddenWidth(), j%gm.g, gm.g)
				b.scratch[j] = append(b.scratch[j], ws.take(se.ScratchElems(gm.tpad, cl, ch)).data)
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
// them there, and in the expert-major buffers themselves when the one group
// is the whole world; either way every member receives them at the same
// offsets of its own block. A member contributes to a ReduceScatter segment
// only its own rows — every other contribution is absent — so where the
// rows stay in the block they are reduced in place.
func (b *passBufs) cutGroup(gm groups, lo int) {
	var agIn, agHid, rs ends
	k := gm.egg * gm.nG // row blocks per member
	for s := 0; s < gm.g; s++ {
		own, ret := b.in[lo+s], b.out[lo+s]
		if gm.nG == 1 {
			own, ret = b.gin, b.gout
		}
		agIn.src = append(agIn.src, gm.memberRows(own, s))
		agHid.src = append(agHid.src, gm.memberCols(b.hid[lo+s], s))
		rs.dst = append(rs.dst, gm.memberRows(ret, s))
		var in, hid []comm.Block
		for c := 0; c < gm.g; c++ {
			in = append(in, gm.memberRows(b.in[lo+s], c)...)
			hid = append(hid, gm.memberCols(b.hid[lo+s], c)...)
		}
		part := make([]comm.Block, gm.g*k)
		copy(part[s*k:], gm.memberRows(b.out[lo+s], s))
		agIn.dst, agHid.dst, rs.src = append(agIn.dst, in), append(agHid.dst, hid), append(rs.src, part)
	}
	b.agIn, b.agHid, b.rs = append(b.agIn, agIn), append(b.agHid, agHid), append(b.rs, rs)
}

// groupExperts returns the experts of rank j's group in block order — at
// g = 1 the rank's own — and groupStaged the same under the staged contract.
func (w *World) groupExperts(gm groups, j int) []Expert {
	return w.layer.cfg.Experts[j/gm.g*gm.egg:][:gm.egg]
}

func (w *World) groupStaged(gm groups, j int) []StagedExpert {
	return w.layer.staged[j/gm.g*gm.egg:][:gm.egg]
}

// macsEst is a structural duration estimate (MMACs) of experts over rows
// for Simulate; Calibrate and the repository benchmark's moe.sim_gap probe
// replace it with measured durations via SimulateWith. Summing per expert matters when the expert mix is
// heterogeneous.
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

// after makes rank j wait for its own entry of each per-rank task vector; a
// nil vector is nothing to wait for.
func after(ids ...[]int) func(j int) []int {
	return func(j int) []int {
		var out []int
		for _, v := range ids {
			if v != nil {
				out = append(out, v[j])
			}
		}
		return out
	}
}

// computeTasks adds one expert-compute task per rank — label[rank], on the
// rank's compute stream, waiting for deps(rank) — and returns the task ids.
func (w *World) computeTasks(p *runtime.Plan, label string, est func(j int) float64, deps func(j int) []int, fn func(j int)) []int {
	ids := make([]int, w.cfg.Ranks)
	for j := range ids {
		ids[j] = p.Add(fmt.Sprintf("%s[%d]", label, j), KindExpert, w.computeStreams[j], est(j),
			func() error { fn(j); return nil }, deps(j)...)
	}
	return ids
}

// laneTask adds one chunk's dispatch or combine step: the g per-lane
// AlltoAll collectives issued back to back on the shared inter stream,
// accumulating traffic stats. The fault guard is minted at plan-build time
// so in-collective injection is deterministic; it covers the whole step and
// runs before any lane moves a byte, so a retry repeats the same copies from
// untouched sources.
func (w *World) laneTask(p *runtime.Plan, gm groups, label string, lanes []ends, rr comm.RowRange, deps []int) int {
	guard := w.collGuard(p, "inter", KindA2A)
	gpn := gm.laneGpn(w.cfg.GPUsPerNode)
	return p.Add(label, KindA2A, "inter", estElems(gm.R*gm.R*gm.eg*rr.Len()*gm.mdim), func() error {
		// One guard invocation per attempt: lane 0 carries it, the
		// remaining lanes of the same step run unguarded behind it.
		lg := guard
		for _, ln := range lanes {
			st, err := comm.AlltoAllBlocks(lg, w.cfg.Algo, ln.src, ln.dst, gpn, rr)
			if err != nil {
				return err
			}
			lg = nil
			w.addStats(st)
		}
		return nil
	}, deps...)
}

// groupTasks adds one chunk's in-group collective — comm.AllGatherBlocks or
// comm.ReduceScatterBlocks over each group's endpoint lists — as one task
// per group on that group's intra stream, waiting for its members' entries
// of deps. It returns, per rank, the task of the rank's group.
func (w *World) groupTasks(p *runtime.Plan, gm groups, label, kind string,
	coll func(comm.Guard, [][]comm.Block, [][]comm.Block, int, comm.RowRange) (comm.Stats, error),
	lists []ends, est func(G int) float64, rr comm.RowRange, deps []int) []int {
	ids := make([]int, gm.R)
	gpn := gm.groupGpn(w.cfg.GPUsPerNode)
	for G, e := range lists {
		stream := w.groupStreams[G]
		guard := w.collGuard(p, stream, kind)
		var members []int
		if deps != nil {
			members = deps[G*gm.g:][:gm.g]
		}
		id := p.Add(fmt.Sprintf("%s[g%d]", label, G), kind, stream, est(G), func() error {
			st, err := coll(guard, e.src, e.dst, gpn, rr)
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
func (w *World) arrive(p *runtime.Plan, gm groups, b *passBufs, ranges []comm.RowRange, a2a, ag string) [][]int {
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
// between groups.
func (w *World) leave(p *runtime.Plan, gm groups, b *passBufs, c int, rr comm.RowRange, rs, a2a string, done []int) {
	if gm.g > 1 {
		done = w.groupTasks(p, gm, fmt.Sprintf("%s%d", rs, c), KindRS, comm.ReduceScatterBlocks, b.rs, gm.rowsEst(rr), rr, done)
	}
	if gm.nG > 1 {
		// One entry per group names every task there is to wait for.
		var deps []int
		for j := 0; j < gm.R; j += gm.g {
			deps = append(deps, done[j])
		}
		w.laneTask(p, gm, fmt.Sprintf("%s[%d]", a2a, c), b.comb, rr, deps)
	}
}

// windows is chunk rr's rows in the shards of the token-side ranks first,
// first+step, … < R of a block, as one window set. A member's stage over
// every gathered row visits every rank (step 1); a stage over its own rows
// the ranks i ≡ m (mod g), which at g = 1 is the same.
func (gm groups) windows(first, step int, rr comm.RowRange) tensor.Windows {
	return tensor.Windows{Lo: first*gm.spad + rr.Lo, N: rr.Len(), Stride: step * gm.spad, Count: (gm.R - first + step - 1) / step}
}

// computeRange is what the expert stages cover at chunk c and what they wait
// for: the chunk's rows once they have landed — or, in a layer holding an
// adapted plain Expert, whose compute is one range per pass, every slot row
// at chunk 0 once every chunk has landed and nothing at the later chunks,
// whose outbound collectives wait for that one stage.
func (w *World) computeRange(gm groups, c int, rr comm.RowRange, landed [][]int) (comm.RowRange, func(j int) []int, bool) {
	if w.layer.plain < 0 {
		return rr, after(landed[c]), true
	}
	return comm.RowRange{Lo: 0, Hi: gm.spad}, after(landed...), c == 0
}

// expertStages adds chunk c's expert compute over the rows rr of every
// token-side rank's shard, forward or backward alike: a member runs hidden,
// its hidden columns, on every gathered row, then output on its own rows,
// over full-width hidden rows. Each stage is one call per pass over the
// chunk's window set — R windows for hidden, nG for output — so each of its
// GEMMs is one product per chunk, not one per source rank. At g > 1 those
// are two tasks per rank (names 0 and 2) around the in-group AllGather of
// the column shards (name 1); at g = 1 the one member owns every column,
// nothing is exchanged, and both run back to back in one task E<c>. scale is
// the pass's cost in forward passes. It returns each rank's last task.
func (w *World) expertStages(p *runtime.Plan, gm groups, b *passBufs, passes [][]ExpertPass, c int, rr comm.RowRange, deps func(j int) []int,
	names [3]string, scale float64, hidden, output func(ps ExpertPass, w tensor.Windows)) []int {
	hiddenStage := func(j int) {
		for _, ps := range passes[j] {
			hidden(ps, gm.windows(0, 1, rr))
		}
	}
	outputStage := func(j int) {
		for _, ps := range passes[j] {
			output(ps, gm.windows(j%gm.g, gm.g, rr))
		}
	}
	hiddenEst := func(j int) float64 {
		return scale * macsEst(w.groupExperts(gm, j), gm.R*rr.Len()) / (2 * float64(gm.g))
	}
	outputEst := func(j int) float64 { return scale * macsEst(w.groupExperts(gm, j), gm.nG*rr.Len()) / 2 }
	if gm.g == 1 {
		return w.computeTasks(p, fmt.Sprintf("E%d", c), func(j int) float64 { return hiddenEst(j) + outputEst(j) }, deps,
			func(j int) { hiddenStage(j); outputStage(j) })
	}
	h := w.computeTasks(p, fmt.Sprintf("%s%d", names[0], c), hiddenEst, deps, hiddenStage)
	h = w.groupTasks(p, gm, fmt.Sprintf("%s%d", names[1], c), KindAG, comm.AllGatherBlocks, b.agHid, b.colsEst(gm, rr), rr, h)
	return w.computeTasks(p, fmt.Sprintf("%s%d", names[2], c), outputEst, after(h), outputStage)
}

// BuildForward appends the forward schedule to p: everything that turns the
// padded scattered buffer into the padded combined buffer. cache.experts
// receives the passes it begins, per rank one for each expert of its group,
// which BuildBackward continues.
func (w *World) BuildForward(p *runtime.Plan, cache *WorldCache, scatPad, combinedPad *tensor.Tensor) {
	gm := w.groups(cache)
	b := w.cutPass(cache.ws, cache.ws.fwd, gm, scatPad, combinedPad, true)
	cache.ws.fwd = b
	ranges := comm.SplitRows(gm.spad, w.cfg.ChunksFwd)
	passes := make([][]ExpertPass, gm.R)
	cache.experts = passes
	for j := range passes {
		for le, se := range w.groupStaged(gm, j) {
			cl, ch := colShard(se.HiddenWidth(), j%gm.g, gm.g)
			passes[j] = append(passes[j], se.Begin(PassBufs{
				X: slotBlock(b.in[j], le, gm.tpad), Out: slotBlock(b.out[j], le, gm.tpad),
				Hidden: b.hid[j][le], Scratch: b.scratch[j][le], Cl: cl, Ch: ch, Pool: w.computePools[j],
			}))
		}
	}

	landed := w.arrive(p, gm, b, ranges, "D", "AGx")
	var done []int
	for c, rr := range ranges {
		if cr, deps, ok := w.computeRange(gm, c, rr, landed); ok {
			done = w.expertStages(p, gm, b, passes, c, cr, deps, [3]string{"H", "AGh", "O"}, 1,
				ExpertPass.ForwardHidden, ExpertPass.ForwardOut)
		}
		w.leave(p, gm, b, c, rr, "RSy", "C", done)
	}
}

// BuildBackward appends the backward schedule to p: everything that turns
// the padded output gradient dpad into the padded dScattered buffer, puts
// each expert's parameter gradients where gradDst says on its owner rank,
// and drives w.sync's emit points.
func (w *World) BuildBackward(p *runtime.Plan, cache *WorldCache, dpad, dScatteredPad *tensor.Tensor) {
	gm := w.groups(cache)
	b := w.cutPass(cache.ws, cache.ws.bwd, gm, dpad, dScatteredPad, false)
	cache.ws.bwd = b
	ranges := comm.SplitRows(gm.spad, w.cfg.ChunksBwd)
	passes := cache.experts
	for j := range passes {
		for le, ps := range passes[j] {
			// Rank j's output gradient and input gradient of its group's expert le.
			ps.BeginBackward(slotBlock(b.in[j], le, gm.tpad), slotBlock(b.out[j], le, gm.tpad), b.hid[j][le], w.gradDst(j/gm.g*gm.egg+le))
		}
	}

	// The adjoint of the forward's last collectives comes first.
	landed := w.arrive(p, gm, b, ranges, "C", "AGd")

	// Gradient-sync emit point 0: AllReduce slices enqueued here run on the
	// inter stream behind the combine-gradient chain, in the slack while the
	// expert chunks compute, before the first dispatch-gradient AlltoAll.
	if w.sync != nil {
		w.sync.BeginLayer(len(ranges) + 1)
		w.sync.EmitAt(p, "inter", 0)
	}

	// dX rows only; the weight gradients wait for W. Adjoint stage 2 is
	// column-sharded over every gathered row, adjoint stage 1 row-sharded
	// over the member's own.
	var last []int // per rank, its latest expert task
	for c, rr := range ranges {
		if cr, deps, ok := w.computeRange(gm, c, rr, landed); ok {
			last = w.expertStages(p, gm, b, passes, c, cr, deps, [3]string{"B1", "AGb", "B2"}, 2,
				ExpertPass.BackwardHidden, ExpertPass.BackwardIn)
		}
		w.leave(p, gm, b, c, rr, "RSd", "D", last)
		// Emit point c+1: slices here trail chunk c's last gradient
		// collective, overlapping later expert chunks.
		if w.sync != nil {
			w.sync.EmitAt(p, "inter", c+1)
		}
	}

	// W — the deferred full-block parameter-gradient reductions, off the
	// communication critical path (§4.1's W-grad tasks), each expert on its
	// owner rank (the RankGrads mapping: member m of a group owns the group's
	// experts [m·Eg, (m+1)·Eg)) from its own fully assembled buffers. The last
	// chunk's task on a rank implies every earlier one (stream order).
	w.computeTasks(p, "W", func(j int) float64 { return macsEst(w.layer.cfg.Experts[j*gm.eg:][:gm.eg], gm.tpad) }, after(last), func(j int) {
		for le := j % gm.g * gm.eg; le < (j%gm.g+1)*gm.eg; le++ {
			passes[j][le].Finish()
			w.wrote(j/gm.g*gm.egg + le)
		}
	})
}
