package moe

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// espStrategy is expert-sharding parallelism (§4's ESP configuration of
// the generalized MoE layer): instead of moving tokens to expert owners,
// every rank participates in every expert's compute over a shard of the
// work, and the collectives are the intra-node AllGather/ReduceScatter
// stages of the generalized schedule, serialized on the shared "intra"
// stream. Per chunk c (a row range of every rank's slot shard):
//
//	AG(x)   gather the chunk's slot rows so every rank holds them all;
//	H       stage-1 GEMMs, sharded over hidden COLUMNS (ShardedExpert);
//	AG(h)   gather the hidden column shards to full width;
//	O       stage-2 GEMMs, sharded over the rank's own slot ROWS;
//	RS(y)   reduce-scatter the row-disjoint partial outputs back to the
//	        token side (each element has exactly one non-zero
//	        contributor, so the ring sum is exact).
//
// The backward pass is the adjoint chain AG(dy) → B1 (column-sharded) →
// AG(hidden grads) → B2 (row-sharded) → RS(dx), with each expert's
// full-block parameter-gradient reduction run once on its owner rank
// (j = e/Eg, the same mapping RankGrads assumes) from the assembled
// full-width buffers — bit-identical to the monolithic backward.
//
// There is no AlltoAll: the inter stream stays empty, so §5 AllReduce
// slices emitted there overlap the intra-stream collectives freely — the
// measured counterpart of the paper's inter/intra-node co-scheduling.
type espStrategy struct {
	experts []ShardedExpert // the layer's experts under the sharded contract
}

// espCache is the ESP forward state Backward consumes.
type espCache struct {
	xFull   []*tensor.Tensor   // per rank (E, tpad, M) gathered inputs
	outFull []*tensor.Tensor   // per rank (E, tpad, M) row-shard outputs
	hf      [][]*tensor.Tensor // [rank][expert] (FwdBands·tpad, W) exchange buffers
	scs     [][]ShardedCache   // [rank][expert]
}

// Name implements ParallelStrategy.
func (s *espStrategy) Name() Strategy { return StrategyESP }

// Chunked implements ParallelStrategy: ESP has no whole-block fallback —
// the sharded contract is required, so the fine-grained path is always on.
func (s *espStrategy) Chunked() bool { return true }

// Validate implements ParallelStrategy.
func (s *espStrategy) Validate(l *MOELayer, cfg WorldConfig) error {
	s.experts = make([]ShardedExpert, len(l.cfg.Experts))
	for e, ex := range l.cfg.Experts {
		se, ok := ex.(ShardedExpert)
		if !ok {
			return fmt.Errorf("moe: strategy %q requires sharded expert compute, but expert %d (%T) does not implement ShardedExpert; whole-block experts run under strategy %q",
				StrategyESP, e, ex, StrategyEP)
		}
		s.experts[e] = se
	}
	return nil
}

// PlanCheck implements ParallelStrategy.
func (s *espStrategy) PlanCheck(plan *DispatchPlan) error {
	if plan.IsDense() {
		return fmt.Errorf("moe: strategy %q supports hard routing only (dense SoftMoE plans have no token rows to shard); dense plans run under strategy %q",
			StrategyESP, StrategyDenseSlots)
	}
	return nil
}

// colShard returns member g's hidden-column range under the uniform
// ceiling allocation: every member is allotted ⌈w/R⌉ wire columns so the
// exchange blocks stay uniform, and trailing members may own fewer (or
// zero) real columns.
func colShard(w, g, ranks int) (lo, hi int) {
	per := (w + ranks - 1) / ranks
	lo = g * per
	hi = lo + per
	if lo > w {
		lo = w
	}
	if hi > w {
		hi = w
	}
	return lo, hi
}

// hiddenBlock is the per-rank wire block size of one hidden exchange
// chunk: for every expert, bands stacked planes of (R·rlen rows × ⌈W/R⌉
// allotted columns).
func (s *espStrategy) hiddenBlock(ranks, rlen int, fwd bool) int {
	rows := ranks * rlen
	blk := 0
	for _, ex := range s.experts {
		ccap := (ex.HiddenWidth() + ranks - 1) / ranks
		bands := ex.FwdBands()
		if !fwd {
			bands = ex.BwdBands()
		}
		blk += bands * rows * ccap
	}
	return blk
}

// xferHidden moves member's hidden-column shards for chunk rows between
// the full-width per-expert buffers bufs and a dense wire block: toWire
// packs the member's own computed columns, !toWire scatters an arrived
// member's columns into the full-width buffers.
func (s *espStrategy) xferHidden(bufs []*tensor.Tensor, wire []float64, member, ranks, spad, tpad int, rr comm.RowRange, fwd, toWire bool) {
	off := 0
	rlen := rr.Len()
	rows := ranks * rlen
	for e, ex := range s.experts {
		width := ex.HiddenWidth()
		ccap := (width + ranks - 1) / ranks
		bands := ex.FwdBands()
		if !fwd {
			bands = ex.BwdBands()
		}
		cl, ch := colShard(width, member, ranks)
		if ch > cl {
			for b := 0; b < bands; b++ {
				plane := off + b*rows*ccap
				for i := 0; i < ranks; i++ {
					for t := rr.Lo; t < rr.Hi; t++ {
						woff := plane + (i*rlen+(t-rr.Lo))*ccap
						row := bufs[e].Row(b*tpad + i*spad + t)[cl:ch]
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

// espXfer copies chunk rows of one slot shard between an expert-major
// (E, tpad, M) buffer and the slot-major (rows × E·M) wire layout shared
// by the AG/RS collectives: wire row wireBase+t holds every expert's row
// fullBase+t side by side. Experts shard over pool (the comm staging
// allotment); each expert's rows are disjoint in both layouts, and the
// work is pure copies, so any width is bit-identical.
func espXfer(pool *tensor.Pool, wire, full []float64, experts, mdim, tpad, wireBase, fullBase int, rr comm.RowRange, toWire bool) {
	pool.ParallelFor(experts, func(e int) {
		for t := rr.Lo; t < rr.Hi; t++ {
			woff := ((wireBase+t)*experts + e) * mdim
			foff := (e*tpad + fullBase + t) * mdim
			if toWire {
				copy(wire[woff:woff+mdim], full[foff:foff+mdim])
			} else {
				copy(full[foff:foff+mdim], wire[woff:woff+mdim])
			}
		}
	})
}

// hiddenExchange appends one chunk's hidden AllGather to the plan: per-rank
// packs of the member's computed columns (pooled wire blocks), the ring
// AllGather on the shared intra stream, and per-rank scatter of every
// member's columns into the full-width buffers. bufs[g] is rank g's
// per-expert buffer list (hf forward, hb backward); deps[g] gates rank g's
// pack. It returns the per-rank unpack task ids.
func (s *espStrategy) hiddenExchange(w *World, p *runtime.Plan, label string, bufs [][]*tensor.Tensor, spad, tpad int, rr comm.RowRange, fwd bool, deps []int) []int {
	R := w.cfg.Ranks
	blk := s.hiddenBlock(R, rr.Len(), fwd)
	sendT := make([]*tensor.Tensor, R)
	send := make([][]float64, R)
	outT := make([]*tensor.Tensor, R)
	outB := make([][]float64, R)
	packIDs := make([]int, R)
	for g := 0; g < R; g++ {
		g := g
		packIDs[g] = p.Add(fmt.Sprintf("P%s[%d]", label, g), KindPack, w.intraStream(g),
			estElems(blk), func() error {
				t := tensor.GetUninit(blk)
				sendT[g], send[g] = t, t.Data()
				s.xferHidden(bufs[g], send[g], g, R, spad, tpad, rr, fwd, true)
				return nil
			}, deps[g])
	}
	// (R-1)·R messages of one per-rank block — the same total-bytes-moved
	// convention as the other collective estimates.
	agGuard := w.collGuard(collStream, KindAG)
	ag := p.Add(fmt.Sprintf("AG%s", label), KindAG, collStream,
		estElems((R-1)*R*blk), func() error {
			for r := 0; r < R; r++ {
				if outT[r] != nil {
					tensor.Put(outT[r]) // a prior attempt's staging, reclaimed before re-Get
				}
				t := tensor.GetUninit(R * blk)
				outT[r], outB[r] = t, t.Data()
			}
			st, err := comm.RingAllGatherIntoGuarded(agGuard, outB, send, w.cfg.GPUsPerNode)
			if err != nil {
				return err
			}
			w.addStats(st)
			return nil
		}, packIDs...)
	unpackIDs := make([]int, R)
	for g := 0; g < R; g++ {
		g := g
		unpackIDs[g] = p.Add(fmt.Sprintf("U%s[%d]", label, g), KindPack, w.intraStream(g),
			estElems(R*blk), func() error {
				for src := 0; src < R; src++ {
					s.xferHidden(bufs[g], outB[g][src*blk:(src+1)*blk], src, R, spad, tpad, rr, fwd, false)
				}
				tensor.Put(outT[g])
				tensor.Put(sendT[g])
				return nil
			}, ag)
	}
	return unpackIDs
}

// BuildForward implements ParallelStrategy.
func (s *espStrategy) BuildForward(w *World, p *runtime.Plan, cache *WorldCache, scatPad, combinedPad *tensor.Tensor) {
	R, mdim := w.cfg.Ranks, w.layer.cfg.M
	E := len(s.experts)
	spad, tpad := cache.spad, cache.tpad
	ranges := comm.SplitRows(spad, w.cfg.ChunksFwd)
	dims := comm.BlockDims{Rows: spad, Width: E * mdim}

	ws := cache.ws
	ec := &espCache{
		xFull:   ws.blocks(R, E, tpad, mdim),
		outFull: ws.blocks(R, E, tpad, mdim),
		hf:      make([][]*tensor.Tensor, R),
		scs:     make([][]ShardedCache, R),
	}
	cache.sc = ec
	for g := 0; g < R; g++ {
		ec.hf[g] = make([]*tensor.Tensor, E)
		ec.scs[g] = make([]ShardedCache, E)
		for e, ex := range s.experts {
			ec.hf[g][e] = ws.tensor(ex.FwdBands()*tpad, ex.HiddenWidth())
			cl, ch := colShard(ex.HiddenWidth(), g, R)
			ec.scs[g][e] = ex.BeginSharded(
				slotBlock(ec.xFull[g], e, tpad),
				slotBlock(ec.outFull[g], e, tpad),
				ec.hf[g][e], cl, ch, w.computePool(g))
		}
	}

	agxData := ws.perRank(R, spad*E*mdim)
	agxOut := ws.perRank(R, tpad*E*mdim)
	rsData := reduceScatterWire(ws, R, R, spad*E*mdim)
	rsOut := ws.perRank(R, spad*E*mdim)
	scatD := scatPad.Data()

	// Phase 1 — pack + input AllGather for every chunk, issued back to
	// back on the intra stream (the Fig. 3c/d ordering): chunk c+1 is on
	// the wire while chunk c's stage-1 GEMMs run.
	agIDs := make([]int, len(ranges))
	for c, rr := range ranges {
		rr := rr
		packIDs := make([]int, R)
		for i := 0; i < R; i++ {
			i := i
			packIDs[i] = p.Add(fmt.Sprintf("G%d[%d]", c, i), KindPack, w.intraStream(i),
				estElems(E*rr.Len()*mdim), func() error {
					espXfer(w.stagingPool(), agxData[i], scatD, E, mdim, tpad, 0, i*spad, rr, true)
					return nil
				})
		}
		agGuard := w.collGuard(collStream, KindAG)
		agIDs[c] = p.Add(fmt.Sprintf("AG[%d]", c), KindAG, collStream,
			estElems((R-1)*R*E*rr.Len()*mdim), func() error {
				st, err := comm.AllGatherRowsGuarded(agGuard, agxData, agxOut, w.cfg.GPUsPerNode, dims, rr)
				if err != nil {
					return err
				}
				w.addStats(st)
				return nil
			}, packIDs...)
	}

	// Phase 2 — per chunk: land the gathered rows, stage-1 GEMMs, hidden
	// exchange, stage-2 GEMMs, output ReduceScatter, land on the token
	// side.
	for c, rr := range ranges {
		rr := rr
		rows := R * rr.Len()
		hIDs := make([]int, R)
		for g := 0; g < R; g++ {
			g := g
			unpack := p.Add(fmt.Sprintf("Ux%d[%d]", c, g), KindPack, w.intraStream(g),
				estElems(R*E*rr.Len()*mdim), func() error {
					for i := 0; i < R; i++ {
						espXfer(w.stagingPool(), agxOut[g], ec.xFull[g].Data(), E, mdim, tpad, i*spad, i*spad, rr, false)
					}
					return nil
				}, agIDs[c])
			hIDs[g] = p.Add(fmt.Sprintf("H%d[%d]", c, g), KindExpert, w.computeStream(g),
				w.allExpertEst(rows)/(2*float64(R)), func() error {
					for e, ex := range s.experts {
						for i := 0; i < R; i++ {
							ex.ForwardHidden(ec.scs[g][e], i*spad+rr.Lo, i*spad+rr.Hi)
						}
					}
					return nil
				}, unpack)
		}
		unpackH := s.hiddenExchange(w, p, fmt.Sprintf("h%d", c), ec.hf, spad, tpad, rr, true, hIDs)
		packY := make([]int, R)
		for g := 0; g < R; g++ {
			g := g
			o := p.Add(fmt.Sprintf("O%d[%d]", c, g), KindExpert, w.computeStream(g),
				w.allExpertEst(rr.Len())/2, func() error {
					for e, ex := range s.experts {
						ex.ForwardOut(ec.scs[g][e], g*spad+rr.Lo, g*spad+rr.Hi)
					}
					return nil
				}, unpackH[g])
			packY[g] = p.Add(fmt.Sprintf("Py%d[%d]", c, g), KindPack, w.intraStream(g),
				estElems(E*rr.Len()*mdim), func() error {
					espXfer(w.stagingPool(), rsData[g], ec.outFull[g].Data(), E, mdim, tpad, g*spad, g*spad, rr, true)
					return nil
				}, o)
		}
		rsGuard := w.collGuard(collStream, KindRS)
		rs := p.Add(fmt.Sprintf("RS[%d]", c), KindRS, collStream,
			estElems((R-1)*R*E*rr.Len()*mdim), func() error {
				st, err := comm.ReduceScatterRowsGuarded(rsGuard, rsData, rsOut, w.cfg.GPUsPerNode, dims, rr)
				if err != nil {
					return err
				}
				w.addStats(st)
				return nil
			}, packY...)
		for i := 0; i < R; i++ {
			i := i
			p.Add(fmt.Sprintf("V%d[%d]", c, i), KindPack, w.intraStream(i),
				estElems(E*rr.Len()*mdim), func() error {
					espXfer(w.stagingPool(), rsOut[i], combinedPad.Data(), E, mdim, tpad, 0, i*spad, rr, false)
					return nil
				}, rs)
		}
	}
}

// BuildBackward implements ParallelStrategy.
func (s *espStrategy) BuildBackward(w *World, p *runtime.Plan, cache *WorldCache, dpad, dScatteredPad *tensor.Tensor) {
	ec := cache.sc.(*espCache)
	R, eg, mdim := w.cfg.Ranks, w.egrp, w.layer.cfg.M
	E := len(s.experts)
	spad, tpad := cache.spad, cache.tpad
	ranges := comm.SplitRows(spad, w.cfg.ChunksBwd)
	dims := comm.BlockDims{Rows: spad, Width: E * mdim}

	ws := cache.ws
	dyFull := ws.blocks(R, E, tpad, mdim)
	dxFull := ws.blocks(R, E, tpad, mdim)
	hb := make([][]*tensor.Tensor, R)
	for g := 0; g < R; g++ {
		hb[g] = make([]*tensor.Tensor, E)
		for e, ex := range s.experts {
			hb[g][e] = ws.tensor(ex.BwdBands()*tpad, ex.HiddenWidth())
		}
	}

	agdData := ws.perRank(R, spad*E*mdim)
	agdOut := ws.perRank(R, tpad*E*mdim)
	rsData := reduceScatterWire(ws, R, R, spad*E*mdim)
	rsOut := ws.perRank(R, spad*E*mdim)
	dpd := dpad.Data()

	// Phase 1 — pack + output-gradient AllGather for every chunk, back to
	// back on the intra stream (the adjoint of the forward output path).
	agIDs := make([]int, len(ranges))
	for c, rr := range ranges {
		rr := rr
		packIDs := make([]int, R)
		for i := 0; i < R; i++ {
			i := i
			packIDs[i] = p.Add(fmt.Sprintf("G%d[%d]", c, i), KindPack, w.intraStream(i),
				estElems(E*rr.Len()*mdim), func() error {
					espXfer(w.stagingPool(), agdData[i], dpd, E, mdim, tpad, 0, i*spad, rr, true)
					return nil
				})
		}
		agGuard := w.collGuard(collStream, KindAG)
		agIDs[c] = p.Add(fmt.Sprintf("AG[%d]", c), KindAG, collStream,
			estElems((R-1)*R*E*rr.Len()*mdim), func() error {
				st, err := comm.AllGatherRowsGuarded(agGuard, agdData, agdOut, w.cfg.GPUsPerNode, dims, rr)
				if err != nil {
					return err
				}
				w.addStats(st)
				return nil
			}, packIDs...)
	}

	// Gradient-sync emit point 0. Under ESP the inter stream carries no
	// layer collectives at all, so slices emitted here (and after every
	// chunk) genuinely co-execute with the intra-stream AG/RS chain — the
	// §4 inter/intra-node overlap, measured.
	if w.sync != nil {
		w.sync.BeginLayer(len(ranges) + 1)
		w.sync.EmitAt(p, "inter", 0)
	}

	// Phase 2 — per chunk: adjoint stage 2 (column-sharded), hidden
	// gradient exchange, adjoint stage 1 (row-sharded), dX ReduceScatter.
	b2Last := make([]int, R)
	for c, rr := range ranges {
		rr := rr
		rows := R * rr.Len()
		b1IDs := make([]int, R)
		for g := 0; g < R; g++ {
			g := g
			unpack := p.Add(fmt.Sprintf("Ud%d[%d]", c, g), KindPack, w.intraStream(g),
				estElems(R*E*rr.Len()*mdim), func() error {
					for i := 0; i < R; i++ {
						espXfer(w.stagingPool(), agdOut[g], dyFull[g].Data(), E, mdim, tpad, i*spad, i*spad, rr, false)
					}
					return nil
				}, agIDs[c])
			b1IDs[g] = p.Add(fmt.Sprintf("B1%d[%d]", c, g), KindExpert, w.computeStream(g),
				w.allExpertEst(rows)/float64(R), func() error {
					for e, ex := range s.experts {
						dyv := slotBlock(dyFull[g], e, tpad)
						for i := 0; i < R; i++ {
							ex.BackwardHidden(ec.scs[g][e], dyv, hb[g][e], i*spad+rr.Lo, i*spad+rr.Hi)
						}
					}
					return nil
				}, unpack)
		}
		unpackB := s.hiddenExchange(w, p, fmt.Sprintf("b%d", c), hb, spad, tpad, rr, false, b1IDs)
		packDx := make([]int, R)
		for g := 0; g < R; g++ {
			g := g
			b2Last[g] = p.Add(fmt.Sprintf("B2%d[%d]", c, g), KindExpert, w.computeStream(g),
				w.allExpertEst(rr.Len()), func() error {
					for e, ex := range s.experts {
						dyv := slotBlock(dyFull[g], e, tpad)
						dxv := slotBlock(dxFull[g], e, tpad)
						ex.BackwardIn(ec.scs[g][e], dyv, dxv, hb[g][e], g*spad+rr.Lo, g*spad+rr.Hi)
					}
					return nil
				}, unpackB[g])
			packDx[g] = p.Add(fmt.Sprintf("Pd%d[%d]", c, g), KindPack, w.intraStream(g),
				estElems(E*rr.Len()*mdim), func() error {
					espXfer(w.stagingPool(), rsData[g], dxFull[g].Data(), E, mdim, tpad, g*spad, g*spad, rr, true)
					return nil
				}, b2Last[g])
		}
		rsGuard := w.collGuard(collStream, KindRS)
		rs := p.Add(fmt.Sprintf("RS[%d]", c), KindRS, collStream,
			estElems((R-1)*R*E*rr.Len()*mdim), func() error {
				st, err := comm.ReduceScatterRowsGuarded(rsGuard, rsData, rsOut, w.cfg.GPUsPerNode, dims, rr)
				if err != nil {
					return err
				}
				w.addStats(st)
				return nil
			}, packDx...)
		if w.sync != nil {
			w.sync.EmitAt(p, "inter", c+1)
		}
		for i := 0; i < R; i++ {
			i := i
			p.Add(fmt.Sprintf("V%d[%d]", c, i), KindPack, w.intraStream(i),
				estElems(E*rr.Len()*mdim), func() error {
					espXfer(w.stagingPool(), rsOut[i], dScatteredPad.Data(), E, mdim, tpad, 0, i*spad, rr, false)
					return nil
				}, rs)
		}
	}

	// Phase 3 — each expert's full-block parameter-gradient reduction on
	// its owner rank (the RankGrads mapping), from the assembled full
	// buffers; non-owner members release their pooled shard state. Every
	// rank's last adjoint task gates these: the owner's full-width hb and
	// dy are complete, and no member state is still in use.
	for j := 0; j < R; j++ {
		j := j
		p.Add(fmt.Sprintf("W[%d]", j), KindExpert, w.computeStream(j),
			w.expertEst(j, tpad), func() error {
				for el := 0; el < eg; el++ {
					e := j*eg + el
					ex := s.experts[e]
					ex.FinishSharded(ec.scs[j][e], slotBlock(dyFull[j], e, tpad), hb[j][e], w.gradDst(e))
					for g := 0; g < R; g++ {
						if g != j {
							ex.DropSharded(ec.scs[g][e])
						}
					}
				}
				return nil
			}, b2Last...)
	}
}
