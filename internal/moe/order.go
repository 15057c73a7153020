package moe

import (
	"repro/internal/tensor"
)

// Order is the data-layout sub-module of §3.1: it transforms token-major
// (N, M) activations into the expert-major layout the dispatch AlltoAll
// expects (Scatter), and back (Gather, the "I-Order"), applying the combine
// weights on the way back. Both implementations must produce bit-identical
// results; they differ only in how a GPU would execute them.
//
// Every method writes into a destination its caller owns and overwrites it
// whole, whatever it held: a World hands out slots of its dirty resident
// workspace, the single-rank layer fresh tensors. Expert-major buffers are
// (E, S, M) with a block stride S ≥ plan.Capacity chosen by the caller —
// slot s of expert e is row e·S+s — so a World scatters straight into its
// rank-divisible padded layout. The pad rows [Capacity, S) of a block are
// written +0 by Scatter and GatherGrad and never read by Gather and
// ScatterGrad; results do not depend on S.
type Order interface {
	Name() string
	// Scatter lays out x (N, M) in dst (E, S, M) according to the plan.
	// Weights are NOT applied here; empty slots and pad rows are +0.
	Scatter(dst, x *tensor.Tensor, plan *DispatchPlan)
	// Gather inverts Scatter on the experts' outputs (E, S, M), writing y
	// (N, M) with each slot's contribution scaled by its combine weight.
	Gather(y, expertOut *tensor.Tensor, plan *DispatchPlan)
	// ScatterGrad back-propagates through Scatter: given the gradient of
	// the (E, S, M) layout it writes the gradient of x into dx (N, M).
	ScatterGrad(dx, dScattered *tensor.Tensor, plan *DispatchPlan)
	// GatherGrad back-propagates through Gather: given dy (N, M) it writes
	// the gradient of the experts' outputs (weights applied; empty slots
	// and pad rows +0) into dOut, shaped like expertOut, and returns the
	// gradient of each slot weight.
	GatherGrad(dOut, dy, expertOut *tensor.Tensor, plan *DispatchPlan) *PlanGrad
}

// slotBlock is the (t, M) view of the first t rows of block e of an
// (E, S, M) buffer: an expert's live slots for t = Capacity, the whole block
// of a rank's local expert for t = S.
func slotBlock(buf *tensor.Tensor, e, t int) *tensor.Tensor {
	s, m := buf.Dim(1), buf.Dim(2)
	return buf.View(e*s*m, t, m)
}

// newSlotGrad allocates a hard plan's slot-weight gradient.
func newSlotGrad(plan *DispatchPlan) *PlanGrad {
	flat := make([]float64, plan.Slots())
	pg := &PlanGrad{SlotWeight: make([][]float64, plan.Experts)}
	for e := range pg.SlotWeight {
		pg.SlotWeight[e] = flat[e*plan.Capacity : (e+1)*plan.Capacity]
	}
	return pg
}

// GShardOrder realizes the ordering as dense one-hot einsum/matmul, the
// GShard formulation (§2.1): a (E·T, N) selection matrix multiplies the
// token matrix. On a GPU this trades memory traffic for GEMM throughput, and
// so it does here: every product is one GEMM over all E·T slots on a pooled
// contiguous slot matrix, which packSlots/unpackSlots copy from and to the
// strided buffers — the accumulation order is that of the (E·T)-slot product
// whatever the stride.
type GShardOrder struct{}

// Name implements Order.
func (GShardOrder) Name() string { return "gshard-einsum" }

// selection builds the (E*T, N) 0/1 dispatch matrix for a hard plan. The
// matrix is transient — callers Put it back once the GEMM consumed it.
func selection(plan *DispatchPlan, tokens int) *tensor.Tensor {
	s := tensor.Get(plan.Slots(), tokens)
	for e := range plan.SlotToken {
		for slot, tok := range plan.SlotToken[e] {
			if tok >= 0 {
				s.Row(e*plan.Capacity + slot)[tok] = 1
			}
		}
	}
	return s
}

// weightedSelection builds the (N, E*T) combine matrix carrying weights,
// transient like selection.
func weightedSelection(plan *DispatchPlan, tokens int) *tensor.Tensor {
	c := tensor.Get(tokens, plan.Slots())
	for e := range plan.SlotToken {
		for slot, tok := range plan.SlotToken[e] {
			if tok >= 0 {
				c.Row(tok)[e*plan.Capacity+slot] = plan.SlotWeight[e][slot]
			}
		}
	}
	return c
}

// packSlots copies the live rows of an (E, S, M) buffer into a pooled
// (E·T, M) slot matrix, which the caller Puts or hands to unpackSlots.
func packSlots(buf *tensor.Tensor, plan *DispatchPlan) *tensor.Tensor {
	t, s, m := plan.Capacity, buf.Dim(1), buf.Dim(2)
	flat := tensor.GetUninit(plan.Slots(), m)
	for e := 0; e < plan.Experts; e++ {
		copy(flat.Data()[e*t*m:(e+1)*t*m], buf.Data()[e*s*m:])
	}
	return flat
}

// unpackSlots moves a pooled slot matrix into the live rows of dst
// (E, S, M), writes dst's pad rows +0 and returns flat to the pool.
func unpackSlots(dst, flat *tensor.Tensor, plan *DispatchPlan) {
	t, s, m := plan.Capacity, dst.Dim(1), dst.Dim(2)
	for e := 0; e < plan.Experts; e++ {
		blk := dst.Data()[e*s*m : (e+1)*s*m]
		clear(blk[copy(blk, flat.Data()[e*t*m:(e+1)*t*m]):])
	}
	tensor.Put(flat)
}

// Scatter implements Order.
func (GShardOrder) Scatter(dst, x *tensor.Tensor, plan *DispatchPlan) {
	sel := plan.DispatchW
	if !plan.IsDense() {
		sel = selection(plan, x.Dim(0))
		defer tensor.Put(sel)
	}
	flat := tensor.GetUninit(plan.Slots(), x.Dim(1))
	tensor.MatMulInto(flat, sel, x)
	unpackSlots(dst, flat, plan)
}

// Gather implements Order.
func (GShardOrder) Gather(y, expertOut *tensor.Tensor, plan *DispatchPlan) {
	w := plan.CombineW
	if !plan.IsDense() {
		w = weightedSelection(plan, y.Dim(0))
		defer tensor.Put(w)
	}
	flat := packSlots(expertOut, plan)
	tensor.MatMulInto(y, w, flat)
	tensor.Put(flat)
}

// ScatterGrad implements Order.
func (GShardOrder) ScatterGrad(dx, dScattered *tensor.Tensor, plan *DispatchPlan) {
	sel := plan.DispatchW
	if !plan.IsDense() {
		sel = selection(plan, dx.Dim(0))
		defer tensor.Put(sel)
	}
	flat := packSlots(dScattered, plan)
	tensor.MatMulT1Into(dx, sel, flat)
	tensor.Put(flat)
}

// GatherGrad implements Order.
func (GShardOrder) GatherGrad(dOut, dy, expertOut *tensor.Tensor, plan *DispatchPlan) *PlanGrad {
	// One pooled slot matrix, first the experts' outputs for the weight
	// gradient, then their gradient.
	flat := packSlots(expertOut, plan)
	w := plan.CombineW
	var pg *PlanGrad
	if plan.IsDense() {
		pg = &PlanGrad{CombineW: tensor.MatMulT2(dy, flat)}
	} else {
		w = weightedSelection(plan, dy.Dim(0))
		defer tensor.Put(w)
		pg = newSlotGrad(plan)
		for e := range plan.SlotToken {
			for slot, tok := range plan.SlotToken[e] {
				if tok < 0 {
					continue
				}
				// dWeight = <dy[token], expertOut[e,slot]>.
				dot := 0.0
				outRow := flat.Row(e*plan.Capacity + slot)
				for j, v := range dy.Row(tok) {
					dot += v * outRow[j]
				}
				pg.SlotWeight[e][slot] = dot
			}
		}
	}
	tensor.MatMulT1Into(flat, w, dy)
	unpackSlots(dOut, flat, plan)
	return pg
}

// TutelOrder realizes the ordering as direct sparse scatter/gather loops —
// the SIMT-efficient kernels of Tutel (§2.1) — parallelized across experts
// where a slot is written and across tokens where a token row is. Dense
// routing has no sparse structure to exploit; there both orders share the
// matmul formulation.
type TutelOrder struct{}

// Name implements Order.
func (TutelOrder) Name() string { return "tutel-sparse" }

// Scatter implements Order.
func (TutelOrder) Scatter(dst, x *tensor.Tensor, plan *DispatchPlan) {
	if plan.IsDense() {
		GShardOrder{}.Scatter(dst, x, plan)
		return
	}
	s, m := dst.Dim(1), dst.Dim(2)
	parallelExperts(plan.Experts, func(e int) {
		blk := dst.Data()[e*s*m : (e+1)*s*m]
		for slot, tok := range plan.SlotToken[e] {
			if tok < 0 {
				clear(blk[slot*m : (slot+1)*m])
				continue
			}
			copy(blk[slot*m:(slot+1)*m], x.Row(tok))
		}
		clear(blk[plan.Capacity*m:])
	})
}

// Gather implements Order.
func (TutelOrder) Gather(y, expertOut *tensor.Tensor, plan *DispatchPlan) {
	if plan.IsDense() {
		GShardOrder{}.Gather(y, expertOut, plan)
		return
	}
	sumSlots(y, expertOut, plan, true)
}

// ScatterGrad implements Order.
func (TutelOrder) ScatterGrad(dx, dScattered *tensor.Tensor, plan *DispatchPlan) {
	if plan.IsDense() {
		GShardOrder{}.ScatterGrad(dx, dScattered, plan)
		return
	}
	sumSlots(dx, dScattered, plan, false)
}

// sumSlots writes into each token row of dst (N, M) the sum of the token's
// slot rows of src (E, S, M), scaled by their combine weights when weighted.
// Token rows may receive from several experts, so the loop shards over
// tokens on the worker pool and walks each token's slots through the plan's
// reverse index, in ascending expert order: every row is 0 + its
// contributions in the order of a serial sweep over the experts, whatever
// the worker count.
func sumSlots(dst, src *tensor.Tensor, plan *DispatchPlan, weighted bool) {
	s, m := src.Dim(1), src.Dim(2)
	idx := plan.slotsOf(dst.Dim(0))
	tensor.ParallelRange(dst.Dim(0), func(lo, hi int) {
		for tok := lo; tok < hi; tok++ {
			row := dst.Row(tok)
			clear(row)
			for _, at := range idx.pos[idx.off[tok]:idx.off[tok+1]] {
				w := 1.0 // 1·v is v: the unweighted sum adds the rows themselves
				if weighted {
					w = plan.SlotWeight[at[0]][at[1]]
				}
				for j, v := range src.Data()[(at[0]*s+at[1])*m:][:m] {
					row[j] += w * v
				}
			}
		}
	})
}

// GatherGrad implements Order.
func (TutelOrder) GatherGrad(dOut, dy, expertOut *tensor.Tensor, plan *DispatchPlan) *PlanGrad {
	if plan.IsDense() {
		return GShardOrder{}.GatherGrad(dOut, dy, expertOut, plan)
	}
	s, m := dOut.Dim(1), dOut.Dim(2)
	pg := newSlotGrad(plan)
	parallelExperts(plan.Experts, func(e int) {
		blk := dOut.Data()[e*s*m : (e+1)*s*m]
		for slot, tok := range plan.SlotToken[e] {
			dst := blk[slot*m : (slot+1)*m]
			if tok < 0 {
				clear(dst)
				continue
			}
			w := plan.SlotWeight[e][slot]
			outRow := expertOut.Data()[(e*s+slot)*m:][:m]
			dot := 0.0
			for j, v := range dy.Row(tok) {
				dst[j] = w * v
				dot += v * outRow[j]
			}
			pg.SlotWeight[e][slot] = dot
		}
		clear(blk[plan.Capacity*m:])
	})
	return pg
}

// parallelExperts runs f(e) for each expert on the shared tensor worker
// pool; small counts run inline there, so no threshold is needed here.
func parallelExperts(experts int, f func(e int)) {
	tensor.ParallelFor(experts, f)
}
