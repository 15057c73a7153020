package moe

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// hybridStrategy is the §4 generalized MoE configuration between pure EP
// and pure ESP: the R ranks split into nG = R/g expert-parallel groups of
// g expert-sharding members (g = WorldConfig.GroupSize). Group G owns the
// contiguous expert range [G·Egg, (G+1)·Egg), Egg = g·E/R, and its g
// members shard every group expert's compute the way ESP shards all of
// them. Per chunk c the plan is
//
//	D       dispatch AlltoAll between groups: lane m (member m of every
//	        group, global ranks {p·g+m}) runs an nG-participant AlltoAll
//	        on the shared inter stream, moving each rank's slot rows to
//	        the group owning their experts;
//	AG(x)   gather the g members' arrivals inside each group, on that
//	        group's own intra collective stream;
//	H       stage-1 GEMMs over every arrived row range, sharded over
//	        hidden COLUMNS g ways (ShardedExpert);
//	AG(h)   gather the hidden column shards to full width in-group;
//	O       stage-2 GEMMs, sharded over each member's own arrival ROWS;
//	RS(y)   in-group ReduceScatter of the row-disjoint partial outputs
//	        (one non-zero contributor per element, so the ring is exact);
//	C       combine AlltoAll between groups, back on the inter stream.
//
// Bit-identity leans on one invariant: a member lands every dispatched
// row at its canonical offset (p·g+m)·spad+t inside the group's
// (Egg, tpad, M) buffers, so the assembled blocks are ordered exactly as
// the sequential layer's and ESP's. The stage GEMMs then shard complete
// dot products (columns forward, rows backward), and each expert's
// full-block weight-gradient reduction runs once on its owner rank
// j = e·R/E (the RankGrads mapping; owner j is member j mod g of group
// j div g) from fully assembled buffers — the same one-contributor-exact
// argument as ESP, now with both stream families live in one plan.
//
// GroupSize 1 and R are built by the specialized strategies (EP and ESP
// respectively) through delegation, so the degenerate plans are exactly
// theirs — Name still reports "hybrid", and the ShardedExpert requirement
// holds at every g for a uniform contract. The genuine two-stream path
// runs for 1 < g < R.
type hybridStrategy struct {
	g, nG   int              // group size, group count
	eg, egg int              // experts per rank, experts per group
	inner   ParallelStrategy // degenerate delegate (g=1 EP, g=R ESP), else nil
	experts []ShardedExpert  // the layer's experts under the sharded contract
	groups  [][]int          // groups[G]: contiguous member ranks of group G
	lanes   [][]int          // lanes[m]: member m of every group, stride g
}

// hybridCache is the hybrid forward state Backward consumes.
type hybridCache struct {
	xFull   []*tensor.Tensor   // per rank (Egg, tpad, M) assembled group inputs
	outFull []*tensor.Tensor   // per rank (Egg, tpad, M) row-shard outputs
	hf      [][]*tensor.Tensor // [rank][group-local expert] exchange buffers
	scs     [][]ShardedCache   // [rank][group-local expert]
}

// Name implements ParallelStrategy. Degenerate group sizes still report
// the hybrid name: the delegate is a plan-construction detail.
func (s *hybridStrategy) Name() Strategy { return StrategyHybrid }

// Chunked implements ParallelStrategy.
func (s *hybridStrategy) Chunked() bool {
	if s.inner != nil {
		return s.inner.Chunked()
	}
	return true
}

// Validate implements ParallelStrategy: GroupSize must be a divisor of
// the rank count inside [1, R], and every expert must implement
// ShardedExpert — at every group size, so a layer that validates at one
// g validates at all of them (the Algorithm-1 grid sweeps g freely).
func (s *hybridStrategy) Validate(l *MOELayer, cfg WorldConfig) error {
	r, g := cfg.Ranks, cfg.GroupSize
	if g < 1 || g > r {
		return fmt.Errorf("moe: strategy %q needs GroupSize in [1, %d] (the rank count), got GroupSize=%d",
			StrategyHybrid, r, g)
	}
	if r%g != 0 {
		return fmt.Errorf("moe: strategy %q needs GroupSize dividing the rank count, got %d ranks over GroupSize=%d",
			StrategyHybrid, r, g)
	}
	s.experts = make([]ShardedExpert, len(l.cfg.Experts))
	for e, ex := range l.cfg.Experts {
		se, ok := ex.(ShardedExpert)
		if !ok {
			return fmt.Errorf("moe: strategy %q requires sharded expert compute at every GroupSize, but expert %d (%T) does not implement ShardedExpert; whole-block experts run under strategy %q",
				StrategyHybrid, e, ex, StrategyEP)
		}
		s.experts[e] = se
	}
	s.g, s.nG = g, r/g
	s.eg = len(l.cfg.Experts) / r
	s.egg = s.eg * g
	s.groups = make([][]int, s.nG)
	for gi := range s.groups {
		s.groups[gi] = make([]int, g)
		for m := 0; m < g; m++ {
			s.groups[gi][m] = gi*g + m
		}
	}
	s.lanes = make([][]int, g)
	for m := range s.lanes {
		s.lanes[m] = make([]int, s.nG)
		for p := 0; p < s.nG; p++ {
			s.lanes[m][p] = p*g + m
		}
	}
	switch g {
	case 1:
		s.inner = &epStrategy{}
	case r:
		s.inner = &espStrategy{}
	default:
		return nil
	}
	return s.inner.Validate(l, cfg)
}

// PlanCheck implements ParallelStrategy.
func (s *hybridStrategy) PlanCheck(plan *DispatchPlan) error {
	if plan.IsDense() {
		return fmt.Errorf("moe: strategy %q supports hard routing only (dense SoftMoE plans have no token rows to route between groups); dense plans run under strategy %q",
			StrategyHybrid, StrategyDenseSlots)
	}
	return nil
}

// groupGpn models one contiguous member group's node shape for Stats and
// the ring groupings: consecutive global ranks, so a group either fits
// inside one node or spans whole nodes; anything irregular degrades to
// all-inter attribution.
func (s *hybridStrategy) groupGpn(w *World) int {
	gpn := w.cfg.GPUsPerNode
	if gpn >= s.g {
		return s.g
	}
	if s.g%gpn == 0 {
		return gpn
	}
	return 1
}

// laneGpn models one dispatch lane's node shape: lane members sit g apart,
// so consecutive lane members share a node only when each node holds whole
// groups (g divides GPUsPerNode); otherwise every lane hop is inter-node.
func (s *hybridStrategy) laneGpn(w *World) int {
	gpn := w.cfg.GPUsPerNode
	if gpn%s.g == 0 {
		if ln := gpn / s.g; ln >= 1 && s.nG%ln == 0 {
			return ln
		}
	}
	return 1
}

// groupEst is a structural duration estimate (MMACs) of group G's expert
// range over rows, the hybrid analog of World.allExpertEst.
func (s *hybridStrategy) groupEst(gi, rows int) float64 {
	macs := 0.0
	for _, ex := range s.experts[gi*s.egg : (gi+1)*s.egg] {
		macs += ex.FwdMACs(rows)
	}
	return macs / 1e6
}

// laneA2A wraps one chunk's dispatch (or combine) step: the g per-lane
// AlltoAll collectives issued back to back on the shared inter stream. One
// guard covers the whole step and runs before any lane moves a byte, so a
// transient guard failure retries bit-safely.
func (s *hybridStrategy) laneA2A(w *World, send, recv [][]float64, dims comm.BlockDims, rr comm.RowRange) func() error {
	guard := w.collGuard("inter", KindA2A)
	gpn := s.laneGpn(w)
	return func() error {
		// One guard invocation per attempt: lane 0 carries it, the
		// remaining lanes of the same step run unguarded behind it.
		lg := guard
		for _, lane := range s.lanes {
			st, err := comm.GroupAlltoAllRowsGuarded(lg, w.cfg.Algo, lane, send, recv, gpn, dims, rr)
			if err != nil {
				return err
			}
			lg = nil
			w.addStats(st)
		}
		return nil
	}
}

// wireOff is the offset of (t, el, m) inside one (S rows × Eg·M wide)
// wire block.
func wireOff(t, el, m, eg, mdim int) int { return (t*eg+el)*mdim + m }

// xferGlobal copies chunk rows [rr.Lo, rr.Hi) of token-side rank i's slot
// shard between the padded global (E, Tpad, M) expert-major buffer and
// rank i's lane wire buffer, whose per-peer blocks are keyed by expert
// group. toWire selects the direction. Every forward/backward pack stage
// on the token side is this one loop, so wire-layout fixes cannot drift
// between the passes. Peers shard over pool (the comm staging allotment):
// each peer touches a disjoint wire block and a disjoint set of expert
// blocks, and the work is pure copies, so any width is bit-identical.
func xferGlobal(pool *tensor.Pool, wire, global []float64, ranks, eg, mdim, spad, tpad, i int, rr comm.RowRange, toWire bool) {
	blk := spad * eg * mdim
	pool.ParallelFor(ranks, func(p int) {
		wb := wire[p*blk : (p+1)*blk]
		for el := 0; el < eg; el++ {
			e := p*eg + el
			for t := rr.Lo; t < rr.Hi; t++ {
				woff := wireOff(t, el, 0, eg, mdim)
				goff := (e*tpad + i*spad + t) * mdim
				if toWire {
					copy(wb[woff:woff+mdim], global[goff:goff+mdim])
				} else {
					copy(global[goff:goff+mdim], wb[woff:woff+mdim])
				}
			}
		}
	})
}

// xferMember copies chunk rows between member (G, m)'s (Egg, tpad, M)
// group buffer and its lane wire, whose per-peer blocks are keyed by peer
// group: block p holds global rank (p·g+m)'s slot rows, landed at their
// canonical offsets (p·g+m)·spad+t — the row-order invariant the
// weight-gradient reductions rely on. Peer groups shard over pool.
func (s *hybridStrategy) xferMember(pool *tensor.Pool, wire, block []float64, m, mdim, spad, tpad int, rr comm.RowRange, toWire bool) {
	g, egg := s.g, s.egg
	blk := spad * egg * mdim
	pool.ParallelFor(s.nG, func(p int) {
		wb := wire[p*blk : (p+1)*blk]
		base := (p*g + m) * spad
		for el := 0; el < egg; el++ {
			for t := rr.Lo; t < rr.Hi; t++ {
				woff := wireOff(t, el, 0, egg, mdim)
				boff := (el*tpad + base + t) * mdim
				if toWire {
					copy(wb[woff:woff+mdim], block[boff:boff+mdim])
				} else {
					copy(block[boff:boff+mdim], wb[woff:woff+mdim])
				}
			}
		}
	})
}

// xferRows copies chunk rows between a member's (Egg, tpad, M) group
// buffer and the slot-major group wire the in-group AllGather and
// ReduceScatter tile: wire row t stacks every (expert, peer-group) pair of
// member m's strided slot rows side by side, width E·M, so the group
// collectives chunk by slot row exactly like ESP's. Experts shard over
// pool.
func (s *hybridStrategy) xferRows(pool *tensor.Pool, wire, block []float64, m, mdim, spad, tpad int, rr comm.RowRange, toWire bool) {
	g, nG, egg := s.g, s.nG, s.egg
	width := egg * nG // == E
	pool.ParallelFor(egg, func(el int) {
		for p := 0; p < nG; p++ {
			base := (p*g + m) * spad
			for t := rr.Lo; t < rr.Hi; t++ {
				woff := (t*width + el*nG + p) * mdim
				boff := (el*tpad + base + t) * mdim
				if toWire {
					copy(wire[woff:woff+mdim], block[boff:boff+mdim])
				} else {
					copy(block[boff:boff+mdim], wire[woff:woff+mdim])
				}
			}
		}
	})
}

// rowsExchange appends one chunk's in-group row AllGather to the plan:
// per-member packs of the member's canonical strided rows, one ring
// AllGather per group on that group's collective stream, and per-member
// scatter of the other members' rows into the (Egg, tpad, M) buffers.
// bufs[j] is rank j's group buffer (xFull forward, dyFull backward);
// deps[j] gates rank j's pack. Returns the per-rank unpack task ids.
func (s *hybridStrategy) rowsExchange(w *World, p *runtime.Plan, label string, bufs []*tensor.Tensor, data, out [][]float64, mdim, spad, tpad int, rr comm.RowRange, deps []int) []int {
	g := s.g
	r := s.nG * g
	e := s.egg * s.nG
	gdims := comm.BlockDims{Rows: spad, Width: e * mdim}
	blk := gdims.Elems()
	packIDs := make([]int, r)
	for j := 0; j < r; j++ {
		j := j
		m := j % g
		packIDs[j] = p.Add(fmt.Sprintf("G%s[%d]", label, j), KindPack, w.intraStream(j),
			estElems(e*rr.Len()*mdim), func() error {
				s.xferRows(w.stagingPool(), data[j], bufs[j].Data(), m, mdim, spad, tpad, rr, true)
				return nil
			}, deps[j])
	}
	unpackIDs := make([]int, r)
	for gi := 0; gi < s.nG; gi++ {
		gi := gi
		members := s.groups[gi]
		guard := w.collGuard(w.groupCollStream(gi), KindAG)
		gpn := s.groupGpn(w)
		agDeps := make([]int, g)
		for m := 0; m < g; m++ {
			agDeps[m] = packIDs[members[m]]
		}
		ag := p.Add(fmt.Sprintf("AG%s[g%d]", label, gi), KindAG, w.groupCollStream(gi),
			estElems((g-1)*g*e*rr.Len()*mdim), func() error {
				st, err := comm.GroupAllGatherRowsGuarded(guard, members, data, out, gpn, gdims, rr)
				if err != nil {
					return err
				}
				w.addStats(st)
				return nil
			}, agDeps...)
		for m := 0; m < g; m++ {
			j := members[m]
			m := m
			unpackIDs[j] = p.Add(fmt.Sprintf("U%s[%d]", label, j), KindPack, w.intraStream(j),
				estElems(g*e*rr.Len()*mdim), func() error {
					for src := 0; src < g; src++ {
						if src == m {
							continue // own rows already live in the buffer
						}
						s.xferRows(w.stagingPool(), out[j][src*blk:(src+1)*blk], bufs[j].Data(), src, mdim, spad, tpad, rr, false)
					}
					return nil
				}, ag)
		}
	}
	return unpackIDs
}

// hiddenBlock is the per-member wire block of one hidden exchange chunk
// for group gi: for every group expert, bands stacked planes of (R·rlen
// rows × ⌈W/g⌉ allotted columns) — all R arrival row ranges, columns
// sharded g ways.
func (s *hybridStrategy) hiddenBlock(gi, rlen int, fwd bool) int {
	rows := s.nG * s.g * rlen
	blk := 0
	for _, ex := range s.experts[gi*s.egg : (gi+1)*s.egg] {
		ccap := (ex.HiddenWidth() + s.g - 1) / s.g
		bands := ex.FwdBands()
		if !fwd {
			bands = ex.BwdBands()
		}
		blk += bands * rows * ccap
	}
	return blk
}

// xferHidden moves member's hidden-column shards for chunk rows between
// group gi's full-width per-expert buffers bufs and a dense wire block
// (the hybrid analog of ESP's xferHidden: columns shard g ways, rows span
// all R arrival ranges).
func (s *hybridStrategy) xferHidden(gi int, bufs []*tensor.Tensor, wire []float64, member, spad, tpad int, rr comm.RowRange, fwd, toWire bool) {
	off := 0
	rlen := rr.Len()
	r := s.nG * s.g
	rows := r * rlen
	for le, ex := range s.experts[gi*s.egg : (gi+1)*s.egg] {
		width := ex.HiddenWidth()
		ccap := (width + s.g - 1) / s.g
		bands := ex.FwdBands()
		if !fwd {
			bands = ex.BwdBands()
		}
		cl, ch := colShard(width, member, s.g)
		if ch > cl {
			for b := 0; b < bands; b++ {
				plane := off + b*rows*ccap
				for i := 0; i < r; i++ {
					for t := rr.Lo; t < rr.Hi; t++ {
						woff := plane + (i*rlen+(t-rr.Lo))*ccap
						row := bufs[le].Row(b*tpad + i*spad + t)[cl:ch]
						if toWire {
							copy(wire[woff:woff+ch-cl], row)
						} else {
							copy(row, wire[woff:woff+ch-cl])
						}
					}
				}
			}
		}
		off += bands * rows * ccap
	}
}

// hiddenExchange appends one chunk's in-group hidden AllGather to the
// plan: per-member packs of the member's computed columns (pooled wire
// blocks), one ring AllGather per group on that group's collective
// stream, and per-member scatter of every member's columns into the
// full-width buffers. bufs[j] is rank j's per-expert buffer list (hf
// forward, hb backward); deps[j] gates rank j's pack. Returns the
// per-rank unpack task ids.
func (s *hybridStrategy) hiddenExchange(w *World, p *runtime.Plan, label string, bufs [][]*tensor.Tensor, spad, tpad int, rr comm.RowRange, fwd bool, deps []int) []int {
	g := s.g
	r := s.nG * g
	sendT := make([]*tensor.Tensor, r)
	send := make([][]float64, r)
	outT := make([]*tensor.Tensor, r)
	outB := make([][]float64, r)
	packIDs := make([]int, r)
	for j := 0; j < r; j++ {
		j := j
		gi, m := j/g, j%g
		blk := s.hiddenBlock(gi, rr.Len(), fwd)
		packIDs[j] = p.Add(fmt.Sprintf("P%s[%d]", label, j), KindPack, w.intraStream(j),
			estElems(blk), func() error {
				t := tensor.GetUninit(blk)
				sendT[j], send[j] = t, t.Data()
				s.xferHidden(gi, bufs[j], send[j], m, spad, tpad, rr, fwd, true)
				return nil
			}, deps[j])
	}
	unpackIDs := make([]int, r)
	for gi := 0; gi < s.nG; gi++ {
		gi := gi
		blk := s.hiddenBlock(gi, rr.Len(), fwd)
		members := s.groups[gi]
		guard := w.collGuard(w.groupCollStream(gi), KindAG)
		gpn := s.groupGpn(w)
		agDeps := make([]int, g)
		for m := 0; m < g; m++ {
			agDeps[m] = packIDs[members[m]]
		}
		ag := p.Add(fmt.Sprintf("AG%s[g%d]", label, gi), KindAG, w.groupCollStream(gi),
			estElems((g-1)*g*blk), func() error {
				for _, mr := range members {
					t := tensor.GetUninit(g * blk)
					outT[mr], outB[mr] = t, t.Data()
				}
				st, err := comm.GroupRingAllGatherIntoGuarded(guard, members, outB, send, gpn)
				if err != nil {
					return err
				}
				w.addStats(st)
				return nil
			}, agDeps...)
		for m := 0; m < g; m++ {
			j := members[m]
			unpackIDs[j] = p.Add(fmt.Sprintf("U%s[%d]", label, j), KindPack, w.intraStream(j),
				estElems(g*blk), func() error {
					for src := 0; src < g; src++ {
						s.xferHidden(gi, bufs[j], outB[j][src*blk:(src+1)*blk], src, spad, tpad, rr, fwd, false)
					}
					tensor.Put(outT[j])
					tensor.Put(sendT[j])
					return nil
				}, ag)
		}
	}
	return unpackIDs
}

// reduceScatter appends one chunk's in-group output ReduceScatter: each
// member packs its computed canonical rows into its own segment of the
// g-segment wire (the other segments stay zero, so every summed element
// has exactly one non-zero contributor and the ring is exact), one
// ReduceScatter per group on that group's collective stream, and each
// member lands its returned rows back into bufs. deps[j] gates rank j's
// pack. Returns the per-rank landing task ids.
func (s *hybridStrategy) reduceScatter(w *World, p *runtime.Plan, label string, bufs []*tensor.Tensor, data, out [][]float64, mdim, spad, tpad int, rr comm.RowRange, deps []int) []int {
	g := s.g
	r := s.nG * g
	e := s.egg * s.nG
	gdims := comm.BlockDims{Rows: spad, Width: e * mdim}
	blk := gdims.Elems()
	packIDs := make([]int, r)
	for j := 0; j < r; j++ {
		j := j
		m := j % g
		packIDs[j] = p.Add(fmt.Sprintf("P%s[%d]", label, j), KindPack, w.intraStream(j),
			estElems(e*rr.Len()*mdim), func() error {
				s.xferRows(w.stagingPool(), data[j][m*blk:(m+1)*blk], bufs[j].Data(), m, mdim, spad, tpad, rr, true)
				return nil
			}, deps[j])
	}
	landIDs := make([]int, r)
	for gi := 0; gi < s.nG; gi++ {
		gi := gi
		members := s.groups[gi]
		guard := w.collGuard(w.groupCollStream(gi), KindRS)
		gpn := s.groupGpn(w)
		rsDeps := make([]int, g)
		for m := 0; m < g; m++ {
			rsDeps[m] = packIDs[members[m]]
		}
		rs := p.Add(fmt.Sprintf("RS%s[g%d]", label, gi), KindRS, w.groupCollStream(gi),
			estElems((g-1)*g*e*rr.Len()*mdim), func() error {
				st, err := comm.GroupReduceScatterRowsGuarded(guard, members, data, out, gpn, gdims, rr)
				if err != nil {
					return err
				}
				w.addStats(st)
				return nil
			}, rsDeps...)
		for m := 0; m < g; m++ {
			j := members[m]
			m := m
			landIDs[j] = p.Add(fmt.Sprintf("V%s[%d]", label, j), KindPack, w.intraStream(j),
				estElems(e*rr.Len()*mdim), func() error {
					s.xferRows(w.stagingPool(), out[j], bufs[j].Data(), m, mdim, spad, tpad, rr, false)
					return nil
				}, rs)
		}
	}
	return landIDs
}

// BuildForward implements ParallelStrategy.
func (s *hybridStrategy) BuildForward(w *World, p *runtime.Plan, cache *WorldCache, scatPad, combinedPad *tensor.Tensor) {
	if s.inner != nil {
		s.inner.BuildForward(w, p, cache, scatPad, combinedPad)
		return
	}
	r, mdim := w.cfg.Ranks, w.layer.cfg.M
	g, nG, egg := s.g, s.nG, s.egg
	e := len(s.experts)
	spad, tpad := cache.spad, cache.tpad
	ranges := comm.SplitRows(spad, w.cfg.ChunksFwd)
	dims := comm.BlockDims{Rows: spad, Width: egg * mdim}
	blk := dims.Elems()

	ws := cache.ws
	hc := &hybridCache{
		xFull:   ws.blocks(r, egg, tpad, mdim),
		outFull: ws.blocks(r, egg, tpad, mdim),
		hf:      make([][]*tensor.Tensor, r),
		scs:     make([][]ShardedCache, r),
	}
	cache.sc = hc
	for j := 0; j < r; j++ {
		gi, m := j/g, j%g
		hc.hf[j] = make([]*tensor.Tensor, egg)
		hc.scs[j] = make([]ShardedCache, egg)
		for le := 0; le < egg; le++ {
			ex := s.experts[gi*egg+le]
			hc.hf[j][le] = ws.tensor(ex.FwdBands()*tpad, ex.HiddenWidth())
			cl, ch := colShard(ex.HiddenWidth(), m, g)
			hc.scs[j][le] = ex.BeginSharded(
				slotBlock(hc.xFull[j], le, tpad),
				slotBlock(hc.outFull[j], le, tpad),
				hc.hf[j][le], cl, ch, w.computePool(j))
		}
	}

	send := ws.perRank(r, nG*blk)
	recv := ws.perRank(r, nG*blk)
	csend := ws.perRank(r, nG*blk)
	crecv := ws.perRank(r, nG*blk)
	agData := ws.perRank(r, spad*e*mdim)
	agOut := ws.perRank(r, g*spad*e*mdim)
	rsData := reduceScatterWire(ws, r, g, spad*e*mdim)
	rsOut := ws.perRank(r, spad*e*mdim)
	scatD := scatPad.Data()

	// Phase 1 — pack + dispatch for every chunk, issued back to back on
	// the inter stream (the Fig. 3c/d ordering): chunk c+1 is on the wire
	// while chunk c runs its in-group stages.
	dispIDs := make([]int, len(ranges))
	for c, rr := range ranges {
		rr := rr
		packIDs := make([]int, r)
		for i := 0; i < r; i++ {
			i := i
			packIDs[i] = p.Add(fmt.Sprintf("P%d[%d]", c, i), KindPack, w.intraStream(i),
				estElems(e*rr.Len()*mdim), func() error {
					xferGlobal(w.stagingPool(), send[i], scatD, nG, egg, mdim, spad, tpad, i, rr, true)
					return nil
				})
		}
		dispIDs[c] = p.Add(fmt.Sprintf("D[%d]", c), KindA2A, "inter",
			estElems(r*r*s.eg*rr.Len()*mdim), s.laneA2A(w, send, recv, dims, rr), packIDs...)
	}

	// Phase 2 — per chunk: land the lane arrivals at canonical offsets,
	// share them in-group, run the sharded stages, reduce-scatter, and
	// combine back to the token side.
	for c, rr := range ranges {
		rr := rr
		rows := r * rr.Len()
		landIDs := make([]int, r)
		for j := 0; j < r; j++ {
			j := j
			m := j % g
			landIDs[j] = p.Add(fmt.Sprintf("Ux%d[%d]", c, j), KindPack, w.intraStream(j),
				estElems(e*rr.Len()*mdim), func() error {
					s.xferMember(w.stagingPool(), recv[j], hc.xFull[j].Data(), m, mdim, spad, tpad, rr, false)
					return nil
				}, dispIDs[c])
		}
		unpackX := s.rowsExchange(w, p, fmt.Sprintf("x%d", c), hc.xFull, agData, agOut, mdim, spad, tpad, rr, landIDs)
		hIDs := make([]int, r)
		for j := 0; j < r; j++ {
			j := j
			gi := j / g
			hIDs[j] = p.Add(fmt.Sprintf("H%d[%d]", c, j), KindExpert, w.computeStream(j),
				s.groupEst(gi, rows)/(2*float64(g)), func() error {
					for le := 0; le < egg; le++ {
						ex := s.experts[gi*egg+le]
						for i := 0; i < r; i++ {
							ex.ForwardHidden(hc.scs[j][le], i*spad+rr.Lo, i*spad+rr.Hi)
						}
					}
					return nil
				}, unpackX[j])
		}
		unpackH := s.hiddenExchange(w, p, fmt.Sprintf("h%d", c), hc.hf, spad, tpad, rr, true, hIDs)
		oIDs := make([]int, r)
		for j := 0; j < r; j++ {
			j := j
			gi, m := j/g, j%g
			oIDs[j] = p.Add(fmt.Sprintf("O%d[%d]", c, j), KindExpert, w.computeStream(j),
				s.groupEst(gi, nG*rr.Len())/2, func() error {
					for le := 0; le < egg; le++ {
						ex := s.experts[gi*egg+le]
						for q := 0; q < nG; q++ {
							base := (q*g + m) * spad
							ex.ForwardOut(hc.scs[j][le], base+rr.Lo, base+rr.Hi)
						}
					}
					return nil
				}, unpackH[j])
		}
		landY := s.reduceScatter(w, p, fmt.Sprintf("y%d", c), hc.outFull, rsData, rsOut, mdim, spad, tpad, rr, oIDs)
		packIDs := make([]int, r)
		for j := 0; j < r; j++ {
			j := j
			m := j % g
			packIDs[j] = p.Add(fmt.Sprintf("R%d[%d]", c, j), KindPack, w.intraStream(j),
				estElems(e*rr.Len()*mdim), func() error {
					s.xferMember(w.stagingPool(), csend[j], hc.outFull[j].Data(), m, mdim, spad, tpad, rr, true)
					return nil
				}, landY[j])
		}
		comb := p.Add(fmt.Sprintf("C[%d]", c), KindA2A, "inter",
			estElems(r*r*s.eg*rr.Len()*mdim), s.laneA2A(w, csend, crecv, dims, rr), packIDs...)
		for i := 0; i < r; i++ {
			i := i
			p.Add(fmt.Sprintf("V%d[%d]", c, i), KindPack, w.intraStream(i),
				estElems(e*rr.Len()*mdim), func() error {
					xferGlobal(w.stagingPool(), crecv[i], combinedPad.Data(), nG, egg, mdim, spad, tpad, i, rr, false)
					return nil
				}, comb)
		}
	}
}

// BuildBackward implements ParallelStrategy.
func (s *hybridStrategy) BuildBackward(w *World, p *runtime.Plan, cache *WorldCache, dpad, dScatteredPad *tensor.Tensor) {
	if s.inner != nil {
		s.inner.BuildBackward(w, p, cache, dpad, dScatteredPad)
		return
	}
	hc := cache.sc.(*hybridCache)
	r, mdim := w.cfg.Ranks, w.layer.cfg.M
	g, nG, egg := s.g, s.nG, s.egg
	e := len(s.experts)
	spad, tpad := cache.spad, cache.tpad
	ranges := comm.SplitRows(spad, w.cfg.ChunksBwd)
	dims := comm.BlockDims{Rows: spad, Width: egg * mdim}
	blk := dims.Elems()

	ws := cache.ws
	dyFull := ws.blocks(r, egg, tpad, mdim)
	dxFull := ws.blocks(r, egg, tpad, mdim)
	hb := make([][]*tensor.Tensor, r)
	for j := 0; j < r; j++ {
		gi := j / g
		hb[j] = make([]*tensor.Tensor, egg)
		for le := 0; le < egg; le++ {
			ex := s.experts[gi*egg+le]
			hb[j][le] = ws.tensor(ex.BwdBands()*tpad, ex.HiddenWidth())
		}
	}

	gsend := ws.perRank(r, nG*blk)
	grecv := ws.perRank(r, nG*blk)
	dsend := ws.perRank(r, nG*blk)
	drecv := ws.perRank(r, nG*blk)
	agData := ws.perRank(r, spad*e*mdim)
	agOut := ws.perRank(r, g*spad*e*mdim)
	rsData := reduceScatterWire(ws, r, g, spad*e*mdim)
	rsOut := ws.perRank(r, spad*e*mdim)
	dpd := dpad.Data()

	// Phase 1 — pack + combine-gradient lanes for every chunk (the adjoint
	// of the forward combine), back to back on the inter stream.
	combIDs := make([]int, len(ranges))
	for c, rr := range ranges {
		rr := rr
		packIDs := make([]int, r)
		for i := 0; i < r; i++ {
			i := i
			packIDs[i] = p.Add(fmt.Sprintf("P%d[%d]", c, i), KindPack, w.intraStream(i),
				estElems(e*rr.Len()*mdim), func() error {
					xferGlobal(w.stagingPool(), gsend[i], dpd, nG, egg, mdim, spad, tpad, i, rr, true)
					return nil
				})
		}
		combIDs[c] = p.Add(fmt.Sprintf("C[%d]", c), KindA2A, "inter",
			estElems(r*r*s.eg*rr.Len()*mdim), s.laneA2A(w, gsend, grecv, dims, rr), packIDs...)
	}

	// Gradient-sync emit point 0: slices enqueued here trail the combine
	// chain on the inter stream, in the slack while the in-group stages run
	// on the per-group streams, before the first dispatch-gradient lanes.
	if w.sync != nil {
		w.sync.BeginLayer(len(ranges) + 1)
		w.sync.EmitAt(p, "inter", 0)
	}

	// Phase 2 — per chunk: land dy at canonical offsets, share it
	// in-group, adjoint stage 2 (column-sharded), hidden gradient
	// exchange, adjoint stage 1 (row-sharded), dX ReduceScatter, and the
	// dispatch-gradient lanes back to the token side.
	b2Last := make([]int, r)
	for c, rr := range ranges {
		rr := rr
		rows := r * rr.Len()
		landIDs := make([]int, r)
		for j := 0; j < r; j++ {
			j := j
			m := j % g
			landIDs[j] = p.Add(fmt.Sprintf("Ud%d[%d]", c, j), KindPack, w.intraStream(j),
				estElems(e*rr.Len()*mdim), func() error {
					s.xferMember(w.stagingPool(), grecv[j], dyFull[j].Data(), m, mdim, spad, tpad, rr, false)
					return nil
				}, combIDs[c])
		}
		unpackD := s.rowsExchange(w, p, fmt.Sprintf("d%d", c), dyFull, agData, agOut, mdim, spad, tpad, rr, landIDs)
		b1IDs := make([]int, r)
		for j := 0; j < r; j++ {
			j := j
			gi := j / g
			b1IDs[j] = p.Add(fmt.Sprintf("B1%d[%d]", c, j), KindExpert, w.computeStream(j),
				s.groupEst(gi, rows)/float64(g), func() error {
					for le := 0; le < egg; le++ {
						ex := s.experts[gi*egg+le]
						dyv := slotBlock(dyFull[j], le, tpad)
						for i := 0; i < r; i++ {
							ex.BackwardHidden(hc.scs[j][le], dyv, hb[j][le], i*spad+rr.Lo, i*spad+rr.Hi)
						}
					}
					return nil
				}, unpackD[j])
		}
		unpackB := s.hiddenExchange(w, p, fmt.Sprintf("b%d", c), hb, spad, tpad, rr, false, b1IDs)
		for j := 0; j < r; j++ {
			j := j
			gi, m := j/g, j%g
			b2Last[j] = p.Add(fmt.Sprintf("B2%d[%d]", c, j), KindExpert, w.computeStream(j),
				s.groupEst(gi, nG*rr.Len()), func() error {
					for le := 0; le < egg; le++ {
						ex := s.experts[gi*egg+le]
						dyv := slotBlock(dyFull[j], le, tpad)
						dxv := slotBlock(dxFull[j], le, tpad)
						for q := 0; q < nG; q++ {
							base := (q*g + m) * spad
							ex.BackwardIn(hc.scs[j][le], dyv, dxv, hb[j][le], base+rr.Lo, base+rr.Hi)
						}
					}
					return nil
				}, unpackB[j])
		}
		landDx := s.reduceScatter(w, p, fmt.Sprintf("d%d", c), dxFull, rsData, rsOut, mdim, spad, tpad, rr, b2Last)
		packIDs := make([]int, r)
		for j := 0; j < r; j++ {
			j := j
			m := j % g
			packIDs[j] = p.Add(fmt.Sprintf("R%d[%d]", c, j), KindPack, w.intraStream(j),
				estElems(e*rr.Len()*mdim), func() error {
					s.xferMember(w.stagingPool(), dsend[j], dxFull[j].Data(), m, mdim, spad, tpad, rr, true)
					return nil
				}, landDx[j])
		}
		dgrad := p.Add(fmt.Sprintf("D[%d]", c), KindA2A, "inter",
			estElems(r*r*s.eg*rr.Len()*mdim), s.laneA2A(w, dsend, drecv, dims, rr), packIDs...)
		// Emit point c+1: slices here trail the c-th dispatch-gradient
		// lanes, overlapping the landing packs and later chunks.
		if w.sync != nil {
			w.sync.EmitAt(p, "inter", c+1)
		}
		for i := 0; i < r; i++ {
			i := i
			p.Add(fmt.Sprintf("V%d[%d]", c, i), KindPack, w.intraStream(i),
				estElems(e*rr.Len()*mdim), func() error {
					xferGlobal(w.stagingPool(), drecv[i], dScatteredPad.Data(), nG, egg, mdim, spad, tpad, i, rr, false)
					return nil
				}, dgrad)
		}
	}

	// Phase 3 — each expert's full-block parameter-gradient reduction on
	// its owner rank (the RankGrads mapping: expert e belongs to rank
	// e/eg, which is member (e/eg) mod g of group e/Egg), from the
	// assembled full-width buffers; the owner releases its group
	// co-members' shard state. Every rank's last adjoint task gates these:
	// the owner's hb and dy are complete, and no member state is in use.
	for j := 0; j < r; j++ {
		j := j
		gi, m := j/g, j%g
		p.Add(fmt.Sprintf("W[%d]", j), KindExpert, w.computeStream(j),
			w.expertEst(j, tpad), func() error {
				for k := 0; k < s.eg; k++ {
					le := m*s.eg + k
					ex := s.experts[gi*egg+le]
					ex.FinishSharded(hc.scs[j][le], slotBlock(dyFull[j], le, tpad), hb[j][le], w.gradDst(gi*egg+le))
					for m2 := 0; m2 < g; m2++ {
						if m2 != m {
							ex.DropSharded(hc.scs[gi*g+m2][le])
						}
					}
				}
				return nil
			}, b2Last...)
	}
}
