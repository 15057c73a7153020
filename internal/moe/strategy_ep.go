package moe

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// epStrategy is pure expert parallelism (§4.1), the scheme the original
// World hard-coded: rank j owns experts [j·E/R, (j+1)·E/R) and computes
// them whole; the dispatch AlltoAll moves rank i's slot rows for expert
// group j to rank j. Because the AlltoAll orders arrivals by source rank
// and the shards are contiguous row ranges, every expert sees exactly the
// rows of the single-rank layer in the same order, making the whole pass
// bit-identical to MOELayer.Forward/Backward at any (R, r).
//
// One copy per hop. Token-side rank i's share of the (E, Tpad, M)
// expert-major buffer is E tiles of spad × M elements — expert e's rows
// [i·spad, (i+1)·spad) — and expert-side rank j's (Eg, Tpad, M) block is the
// (source rank, local expert) tiling of the same tiles. The AlltoAll takes
// both as block lists (comm.AlltoAllTiles), so a dispatch chunk is copied
// once, from the expert-major buffer into the rank blocks, and a combine
// chunk once on the way back; there is no wire buffer and no pack stage.
//
// Streams: one global "inter" stream serializes the AlltoAll chunk
// collectives (the NIC of Figs. 3–4) and each rank owns a "compute:<rank>"
// stream for expert math — nothing else. Expert chunk c can compute while
// chunk c+1 is on the wire — measured, not simulated.
type epStrategy struct {
	chunked bool // every expert implements ChunkedExpert
}

// epCache is the EP forward state Backward consumes.
type epCache struct {
	xBlocks   []*tensor.Tensor // per rank (Eg, Tpad, M) expert inputs
	outBlocks []*tensor.Tensor // per rank (Eg, Tpad, M) expert outputs
	ccs       [][]ChunkedCache // [rank][local expert], chunked mode
	expCaches [][]ExpertCache  // [rank][local expert], fallback mode
}

// Name implements ParallelStrategy.
func (s *epStrategy) Name() Strategy { return StrategyEP }

// Chunked implements ParallelStrategy.
func (s *epStrategy) Chunked() bool { return s.chunked }

// Validate implements ParallelStrategy: EP works with any expert; the
// chunk-granular path needs the ChunkedExpert contract from every expert,
// otherwise compute falls back to whole blocks per rank.
func (s *epStrategy) Validate(l *MOELayer, cfg WorldConfig) error {
	s.chunked = true
	for _, ex := range l.cfg.Experts {
		if _, ok := ex.(ChunkedExpert); !ok {
			s.chunked = false
			break
		}
	}
	return nil
}

// PlanCheck implements ParallelStrategy.
func (s *epStrategy) PlanCheck(plan *DispatchPlan) error {
	if plan.IsDense() {
		return fmt.Errorf("moe: strategy %q supports hard routing only (dense SoftMoE plans have no token rows to chunk); dense plans run under strategy %q",
			StrategyEP, StrategyDenseSlots)
	}
	return nil
}

// expertMajorTiles lists every token-side rank's tiles of an (E, Tpad, M)
// expert-major buffer in AlltoAll order: rank i's tile e — peer e/Eg, local
// expert e%Eg — is expert e's rows [i·spad, (i+1)·spad).
func expertMajorTiles(global []float64, ranks, experts, mdim, spad, tpad int) [][][]float64 {
	out := make([][][]float64, ranks)
	for i := range out {
		out[i] = make([][]float64, experts)
		for e := range out[i] {
			off := (e*tpad + i*spad) * mdim
			out[i][e] = global[off : off+spad*mdim]
		}
	}
	return out
}

// rankBlockTiles lists every expert-side rank's tiles of its (Eg, Tpad, M)
// block in AlltoAll order: rank j's tile i·Eg+el — peer i, local expert el
// — is local expert el's rows [i·spad, (i+1)·spad).
func rankBlockTiles(blocks []*tensor.Tensor, eg, mdim, spad, tpad int) [][][]float64 {
	ranks := len(blocks)
	out := make([][][]float64, ranks)
	for j, blk := range blocks {
		out[j] = make([][]float64, ranks*eg)
		for i := 0; i < ranks; i++ {
			for el := 0; el < eg; el++ {
				off := (el*tpad + i*spad) * mdim
				out[j][i*eg+el] = blk.Data()[off : off+spad*mdim]
			}
		}
	}
	return out
}

// a2aTask wraps one chunk collective between block-list endpoints,
// accumulating traffic stats (safe: all A2A tasks share the serialized
// "inter" stream). The fault guard is minted at plan-build time so
// in-collective injection is deterministic; a retry repeats the same
// copies from untouched sources.
func (s *epStrategy) a2aTask(w *World, send, recv [][][]float64, dims comm.BlockDims, rr comm.RowRange) func() error {
	g := w.collGuard("inter", KindA2A)
	return func() error {
		st, err := comm.AlltoAllTilesGuarded(g, w.cfg.Algo, send, recv, w.cfg.GPUsPerNode, dims, rr)
		if err != nil {
			return err
		}
		w.addStats(st)
		return nil
	}
}

// BuildForward implements ParallelStrategy.
func (s *epStrategy) BuildForward(w *World, p *runtime.Plan, cache *WorldCache, scatPad, combinedPad *tensor.Tensor) {
	R, eg, mdim := w.cfg.Ranks, w.egrp, w.layer.cfg.M
	spad, tpad := cache.spad, cache.tpad
	ranges := comm.SplitRows(spad, w.cfg.ChunksFwd)
	dims := comm.BlockDims{Rows: spad, Width: mdim}

	ec := &epCache{
		xBlocks:   cache.ws.blocks(R, eg, tpad, mdim),
		outBlocks: cache.ws.blocks(R, eg, tpad, mdim),
	}
	cache.sc = ec
	scatTiles := expertMajorTiles(scatPad.Data(), R, R*eg, mdim, spad, tpad)
	combTiles := expertMajorTiles(combinedPad.Data(), R, R*eg, mdim, spad, tpad)
	xTiles := rankBlockTiles(ec.xBlocks, eg, mdim, spad, tpad)
	outTiles := rankBlockTiles(ec.outBlocks, eg, mdim, spad, tpad)

	// Per-expert chunk caches (chunked mode) span the full padded block.
	if s.chunked {
		ec.ccs = make([][]ChunkedCache, R)
		for j := 0; j < R; j++ {
			ec.ccs[j] = make([]ChunkedCache, eg)
			for el := 0; el < eg; el++ {
				ec.ccs[j][el] = w.expert(j, el).(ChunkedExpert).BeginChunked(
					slotBlock(ec.xBlocks[j], el, tpad),
					slotBlock(ec.outBlocks[j], el, tpad),
					w.computePool(j))
			}
		}
	} else {
		ec.expCaches = make([][]ExpertCache, R)
		for j := 0; j < R; j++ {
			ec.expCaches[j] = make([]ExpertCache, eg)
		}
	}

	// Phase 1 — dispatch every chunk. Enqueueing all dispatch collectives
	// before any combine keeps the inter stream issuing them back to back
	// (the Fig. 3c/d ordering core.buildForwardLayer uses): chunk c+1 is on
	// the wire while chunk c computes, which is the whole point of the
	// pipeline. Interleaving D and C per chunk would serialize D[c+1] behind
	// C[c] — and C[c] waits on expert chunk c.
	dispIDs := make([]int, len(ranges))
	for c, rr := range ranges {
		dispIDs[c] = p.Add(fmt.Sprintf("D[%d]", c), KindA2A, "inter",
			estElems(R*R*eg*rr.Len()*mdim), s.a2aTask(w, scatTiles, xTiles, dims, rr))
	}

	// Phase 2 — expert compute per chunk, straight on the landed rows.
	// expTask[c] holds the tasks chunk c's combine must wait for.
	expTask := s.emitForwardExperts(w, p, ec, cache, dispIDs, ranges)

	// Phase 3 — combine every chunk back to the token side.
	for c, rr := range ranges {
		p.Add(fmt.Sprintf("C[%d]", c), KindA2A, "inter",
			estElems(R*R*eg*rr.Len()*mdim), s.a2aTask(w, outTiles, combTiles, dims, rr), expTask[c]...)
	}
}

// emitForwardExperts adds phase 2 of the forward plan: the expert compute
// on each dispatch chunk's arrivals. It returns expTask[c][j], the task id
// chunk c's combine depends on for rank j. Chunk-capable experts compute
// per chunk; fallback experts compute the whole block once every chunk has
// landed (so every expTask[c][j] is the same whole-block task).
func (s *epStrategy) emitForwardExperts(w *World, p *runtime.Plan, ec *epCache, cache *WorldCache, dispIDs []int, ranges []comm.RowRange) [][]int {
	R, eg := w.cfg.Ranks, w.egrp
	spad, tpad := cache.spad, cache.tpad
	expTask := make([][]int, len(ranges))
	for c := range expTask {
		expTask[c] = make([]int, R)
	}
	if s.chunked {
		for c, rr := range ranges {
			rr := rr
			for j := 0; j < R; j++ {
				j := j
				expTask[c][j] = p.Add(fmt.Sprintf("E%d[%d]", c, j), KindExpert, w.computeStream(j),
					w.expertEst(j, rr.Len()*R), func() error {
						for el := 0; el < eg; el++ {
							cc := ec.ccs[j][el]
							ce := w.expert(j, el).(ChunkedExpert)
							for i := 0; i < R; i++ {
								ce.ForwardChunk(cc, i*spad+rr.Lo, i*spad+rr.Hi)
							}
						}
						return nil
					}, dispIDs[c])
			}
		}
		return expTask
	}
	for j := 0; j < R; j++ {
		j := j
		id := p.Add(fmt.Sprintf("E[%d]", j), KindExpert, w.computeStream(j),
			w.expertEst(j, tpad), func() error {
				for el := 0; el < eg; el++ {
					ec.expCaches[j][el] = forwardExpert(w.expert(j, el),
						slotBlock(ec.xBlocks[j], el, tpad), slotBlock(ec.outBlocks[j], el, tpad))
				}
				return nil
			}, dispIDs...)
		for c := range expTask {
			expTask[c][j] = id
		}
	}
	return expTask
}

// BuildBackward implements ParallelStrategy.
func (s *epStrategy) BuildBackward(w *World, p *runtime.Plan, cache *WorldCache, dpad, dScatteredPad *tensor.Tensor) {
	ec := cache.sc.(*epCache)
	R, eg, mdim := w.cfg.Ranks, w.egrp, w.layer.cfg.M
	spad, tpad := cache.spad, cache.tpad
	ranges := comm.SplitRows(spad, w.cfg.ChunksBwd)
	dims := comm.BlockDims{Rows: spad, Width: mdim}

	dyBlocks := cache.ws.blocks(R, eg, tpad, mdim)
	dxBlocks := cache.ws.blocks(R, eg, tpad, mdim)
	dpadTiles := expertMajorTiles(dpad.Data(), R, R*eg, mdim, spad, tpad)
	dScatTiles := expertMajorTiles(dScatteredPad.Data(), R, R*eg, mdim, spad, tpad)
	dyTiles := rankBlockTiles(dyBlocks, eg, mdim, spad, tpad)
	dxTiles := rankBlockTiles(dxBlocks, eg, mdim, spad, tpad)

	// Phase 1 — combine-gradient AlltoAll for every chunk (the adjoint of
	// the forward combine), issued back to back on the inter stream like the
	// forward dispatches: the same Fig. 3c/d ordering, here "all C, then
	// all D", matching core.buildBackwardLayer.
	combIDs := make([]int, len(ranges))
	for c, rr := range ranges {
		combIDs[c] = p.Add(fmt.Sprintf("C[%d]", c), KindA2A, "inter",
			estElems(R*R*eg*rr.Len()*mdim), s.a2aTask(w, dpadTiles, dyTiles, dims, rr))
	}

	// Gradient-sync emit point 0: AllReduce slices enqueued here run on the
	// inter stream after the combine chain, in the slack while the expert
	// chunks compute, before the first dispatch-gradient AlltoAll.
	if w.sync != nil {
		w.sync.BeginLayer(len(ranges) + 1)
		w.sync.EmitAt(p, "inter", 0)
	}

	// Phase 2 — expert backward per chunk (dX rows only; weight gradients
	// wait for phase 4).
	expTask := make([][]int, len(ranges))
	for c := range expTask {
		expTask[c] = make([]int, R)
	}
	if s.chunked {
		for c, rr := range ranges {
			rr := rr
			for j := 0; j < R; j++ {
				j := j
				expTask[c][j] = p.Add(fmt.Sprintf("E%d[%d]", c, j), KindExpert, w.computeStream(j),
					w.expertEst(j, 2*rr.Len()*R), func() error {
						for el := 0; el < eg; el++ {
							ce := w.expert(j, el).(ChunkedExpert)
							dyv := slotBlock(dyBlocks[j], el, tpad)
							dxv := slotBlock(dxBlocks[j], el, tpad)
							for i := 0; i < R; i++ {
								ce.BackwardChunk(ec.ccs[j][el], dyv, dxv, i*spad+rr.Lo, i*spad+rr.Hi)
							}
						}
						return nil
					}, combIDs[c])
			}
		}
	} else {
		for j := 0; j < R; j++ {
			j := j
			id := p.Add(fmt.Sprintf("E[%d]", j), KindExpert, w.computeStream(j),
				w.expertEst(j, 2*tpad), func() error {
					for el := 0; el < eg; el++ {
						w.backwardWhole(j*eg+el, ec.expCaches[j][el],
							slotBlock(dyBlocks[j], el, tpad), slotBlock(dxBlocks[j], el, tpad))
					}
					return nil
				}, combIDs...)
			for c := range expTask {
				expTask[c][j] = id
			}
		}
	}

	// Phase 3 — dispatch-gradient AlltoAll per chunk, landing dX straight in
	// the padded expert-major buffer.
	for c, rr := range ranges {
		p.Add(fmt.Sprintf("D[%d]", c), KindA2A, "inter",
			estElems(R*R*eg*rr.Len()*mdim), s.a2aTask(w, dxTiles, dScatTiles, dims, rr), expTask[c]...)
		// Emit point c+1: slices here trail the c-th dispatch-gradient
		// chunk, overlapping later expert chunks.
		if w.sync != nil {
			w.sync.EmitAt(p, "inter", c+1)
		}
	}

	// Phase 4 — deferred full-block parameter-gradient reductions, off the
	// communication critical path (§4.1's W-grad tasks). The last expert
	// chunk on a rank implies every earlier one (stream order).
	if s.chunked {
		for j := 0; j < R; j++ {
			j := j
			p.Add(fmt.Sprintf("W[%d]", j), KindExpert, w.computeStream(j),
				w.expertEst(j, tpad), func() error {
					for el := 0; el < eg; el++ {
						ce := w.expert(j, el).(ChunkedExpert)
						ce.FinishBackward(ec.ccs[j][el], slotBlock(dyBlocks[j], el, tpad), w.gradDst(j*eg+el))
					}
					return nil
				}, expTask[len(ranges)-1][j])
		}
	}
}

// denseSlotsStrategy runs dense (SoftMoE) plans through the EP pipeline
// chunked over expert slots instead of token rows. A dense plan's
// (E, T, M) scattered buffer carries convex token mixtures in its slot
// rows; those rows shard, dispatch, compute and combine exactly like hard
// slots — the token mixing itself lives in the replicated gate/order
// prolog and epilog, outside the pipeline. Lifting the old "world
// supports hard routing only" rejection is therefore a plan-validation
// change, not a new data path: the schedules are the EP ones over slot
// rows.
type denseSlotsStrategy struct {
	epStrategy
}

// Name implements ParallelStrategy.
func (s *denseSlotsStrategy) Name() Strategy { return StrategyDenseSlots }

// PlanCheck implements ParallelStrategy.
func (s *denseSlotsStrategy) PlanCheck(plan *DispatchPlan) error {
	if !plan.IsDense() {
		return fmt.Errorf("moe: strategy %q requires a dense (SoftMoE) routing plan; hard top-k gates run under strategy %q or %q",
			StrategyDenseSlots, StrategyEP, StrategyESP)
	}
	return nil
}
