// Package moe implements the MoE layer itself: the six sub-modules of §3.1
// (Gate, Order, I-Order, Dispatch, Combine, Expert) plus the hook points,
// all running real math on CPU tensors.
//
// The package is the "flexible framework" half of the paper: every
// sub-module has multiple interchangeable implementations (five gating
// functions, two ordering functions, two expert types), and the layer
// itself is assembled from them without invasive changes — the
// modularization claim of §3.1. The Dispatch sub-module's implementations
// (Combine is its adjoint) are the three AlltoAll algorithms of
// internal/comm, which a World's plans run as chosen by WorldConfig.Algo;
// on a single device, dispatch and combine are the identity.
package moe

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// DispatchPlan is the normalized routing decision every gate produces: an
// assignment of tokens to (expert, slot) positions in the (E, T, M) layout
// that the Order sub-module materializes.
//
// Hard-routing gates (GShard, Sigmoid, X-MoE, EC) fill SlotToken and
// SlotWeight. SoftMoE routes densely: every slot is a convex combination of
// all tokens, expressed by DispatchW/CombineW, and SlotToken is nil.
type DispatchPlan struct {
	Experts  int // E
	Capacity int // T, slots per expert

	// SlotToken[e][s] is the token occupying slot s of expert e, or -1 for
	// an empty (padded) slot. SlotWeight[e][s] is the combine weight the
	// expert's output is scaled by (§2.1).
	SlotToken  [][]int
	SlotWeight [][]float64

	// Dropped counts (token, choice) assignments discarded because the
	// target expert's capacity T = k·f·B·L/E was exhausted (§2.1).
	Dropped int

	// AuxLoss is the gate's load-balancing auxiliary loss, when defined.
	AuxLoss float64

	// Dense routing (SoftMoE): DispatchW is (E*T, N) — slot inputs are
	// DispatchW @ x — and CombineW is (N, E*T) — outputs are
	// CombineW @ slotOutputs.
	DispatchW *tensor.Tensor
	CombineW  *tensor.Tensor

	// Memory the plan keeps for what is derived from it — the reverse index
	// (slotsOf) and the weight gradient (weightGrad) — so a gate that routes
	// into the same plan again (routing, gate.go) rebuilds both in place.
	rev     slotIndex
	revN    int // tokens+1 of the index rev holds; 0 until slotsOf builds one
	grad    PlanGrad
	gradMem []float64 // grad.SlotWeight's rows, flat
}

// IsDense reports whether the plan uses soft (dense) routing.
func (p *DispatchPlan) IsDense() bool { return p.DispatchW != nil }

// fill is one past expert e's last occupied slot: its block's rows that
// hold a token, or an empty slot ahead of one, are [0, fill). A gate's pack
// fills slots in token order, so only a custom plan has empty slots below
// it. Every slot of a dense plan is occupied.
func (p *DispatchPlan) fill(e int) int {
	if p.IsDense() {
		return p.Capacity
	}
	toks := p.SlotToken[e]
	s := len(toks)
	for s > 0 && toks[s-1] < 0 {
		s--
	}
	return s
}

// ExpertLoad returns the number of real tokens routed to each expert —
// occupied slots for hard plans (capacity padding excluded), Capacity for
// every expert of a dense plan (each slot is a convex combination of all
// tokens, so every slot carries load). This is the per-expert utilization
// signal FlexMoE-style dynamic placement watches.
func (p *DispatchPlan) ExpertLoad() []int {
	load := make([]int, p.Experts)
	if p.IsDense() {
		for e := range load {
			load[e] = p.Capacity
		}
		return load
	}
	for e := range p.SlotToken {
		for _, tok := range p.SlotToken[e] {
			if tok >= 0 {
				load[e]++
			}
		}
	}
	return load
}

// Slots returns E*T.
func (p *DispatchPlan) Slots() int { return p.Experts * p.Capacity }

// Validate checks structural invariants; tests and the layer call it.
func (p *DispatchPlan) Validate(tokens int) error {
	if p.Experts <= 0 || p.Capacity < 0 {
		return fmt.Errorf("moe: plan with E=%d T=%d", p.Experts, p.Capacity)
	}
	if p.IsDense() {
		if p.DispatchW.Dim(0) != p.Slots() || p.DispatchW.Dim(1) != tokens {
			return fmt.Errorf("moe: dense dispatch shape %v, want (%d,%d)", p.DispatchW.Shape(), p.Slots(), tokens)
		}
		if p.CombineW.Dim(0) != tokens || p.CombineW.Dim(1) != p.Slots() {
			return fmt.Errorf("moe: dense combine shape %v, want (%d,%d)", p.CombineW.Shape(), tokens, p.Slots())
		}
		return nil
	}
	if len(p.SlotToken) != p.Experts || len(p.SlotWeight) != p.Experts {
		return fmt.Errorf("moe: plan has %d/%d expert rows, want %d", len(p.SlotToken), len(p.SlotWeight), p.Experts)
	}
	for e := range p.SlotToken {
		if len(p.SlotToken[e]) != p.Capacity || len(p.SlotWeight[e]) != p.Capacity {
			return fmt.Errorf("moe: expert %d has %d slots, want %d", e, len(p.SlotToken[e]), p.Capacity)
		}
		for s, tok := range p.SlotToken[e] {
			if tok < -1 || tok >= tokens {
				return fmt.Errorf("moe: expert %d slot %d references token %d of %d", e, s, tok, tokens)
			}
			if tok == -1 && p.SlotWeight[e][s] != 0 {
				return fmt.Errorf("moe: empty slot (%d,%d) has weight %v", e, s, p.SlotWeight[e][s])
			}
		}
	}
	return nil
}

// Capacity computes T = k·f·(tokens)/E rounded up (§2.1). A factor of 0
// encodes the paper's f=∗ ("tokens will not be dropped"), for which the
// caller must size capacity to the realized maximum load via CapacityNoDrop.
func CapacityFor(tokens, e, k int, factor float64) int {
	if factor <= 0 {
		return 0
	}
	t := int(factor * float64(k) * float64(tokens) / float64(e))
	if t < 1 {
		t = 1
	}
	return t
}

// assignment is one (token, choice) routing decision prior to capacity
// resolution.
type assignment struct {
	token  int
	expert int
	weight float64
	choice int // rank of this choice for the token (0 = best)
}

// pack packs assignments into r's plan, its slot tables in r's memory, in
// token order, dropping over-capacity assignments, which is the standard
// GShard capacity semantics. capacity <= 0 means f=∗: the capacity becomes
// the realized maximum expert load (no drops).
func (r *routing) pack(experts, capacity int, asg []assignment) *DispatchPlan {
	next := grow(r.next, experts)
	r.next = next
	if capacity <= 0 {
		clear(next)
		for _, a := range asg {
			next[a.expert]++
		}
		capacity = max(1, slices.Max(next))
	}
	p := r.layout(experts, capacity)
	clear(next)
	for _, a := range asg {
		e := a.expert
		if next[e] >= capacity {
			p.Dropped++
			continue
		}
		p.SlotToken[e][next[e]] = a.token
		p.SlotWeight[e][next[e]] = a.weight
		next[e]++
	}
	return p
}

// layout makes r's plan an empty hard plan over experts × capacity slots —
// every token -1, every weight +0 — its slot tables in r's memory.
func (r *routing) layout(experts, capacity int) *DispatchPlan {
	p := &r.plan
	p.reset(experts, capacity)
	r.tok, r.wt = grow(r.tok, experts*capacity), grow(r.wt, experts*capacity)
	for i := range r.tok {
		r.tok[i] = -1
	}
	clear(r.wt)
	p.SlotToken, p.SlotWeight = grow(p.SlotToken, experts), grow(p.SlotWeight, experts)
	for e := 0; e < experts; e++ {
		p.SlotToken[e] = r.tok[e*capacity : (e+1)*capacity]
		p.SlotWeight[e] = r.wt[e*capacity : (e+1)*capacity]
	}
	return p
}

// reset makes p an empty plan over experts × capacity slots that keeps
// the memory p holds: its slot-table rows and what slotsOf and weightGrad
// build.
func (p *DispatchPlan) reset(experts, capacity int) {
	*p = DispatchPlan{Experts: experts, Capacity: capacity,
		SlotToken: p.SlotToken, SlotWeight: p.SlotWeight, rev: p.rev, grad: p.grad, gradMem: p.gradMem}
}

// slotIndex is a hard plan's token → (expert, slot) reverse index: token
// t occupies pos[off[t]:off[t+1]], in ascending (expert, slot) order.
type slotIndex struct {
	off []int
	pos [][2]int
}

// slotsOf returns the plan's reverse index over tokens tokens, built on
// first use, in the plan's memory, and kept: a plan is routed once and
// gathered through many times.
func (p *DispatchPlan) slotsOf(tokens int) *slotIndex {
	idx := &p.rev
	if p.revN == tokens+1 {
		return idx
	}
	// Count each token's slots into off[t+1], prefix-sum, then place: off[t]
	// walks forward as token t's cursor and is shifted back afterwards.
	idx.off = grow(idx.off, tokens+1)
	clear(idx.off)
	for e := range p.SlotToken {
		for _, tok := range p.SlotToken[e] {
			if tok >= 0 {
				idx.off[tok+1]++
			}
		}
	}
	for t := 0; t < tokens; t++ {
		idx.off[t+1] += idx.off[t]
	}
	idx.pos = grow(idx.pos, idx.off[tokens])
	for e := range p.SlotToken {
		for s, tok := range p.SlotToken[e] {
			if tok >= 0 {
				idx.pos[idx.off[tok]] = [2]int{e, s}
				idx.off[tok]++
			}
		}
	}
	copy(idx.off[1:], idx.off)
	idx.off[0] = 0
	p.revN = tokens + 1
	return idx
}

// weightGrad returns the gradient of a hard plan's slot weights, zeroed, in
// the plan's memory: Order.GatherGrad fills it for the gate's Backward.
func (p *DispatchPlan) weightGrad() *PlanGrad {
	p.gradMem = grow(p.gradMem, p.Slots())
	clear(p.gradMem)
	g := &p.grad
	g.SlotWeight = grow(g.SlotWeight, p.Experts)
	for e := range g.SlotWeight {
		g.SlotWeight[e] = p.gradMem[e*p.Capacity : (e+1)*p.Capacity]
	}
	return g
}

// slotWeightGrad returns the gradient of a hard plan's slot weights, in the
// plan's memory (weightGrad): slot (e, s)'s is <dy[token], expertOut[e, s]>,
// the token's output gradient dotted with the slot's expert output in column
// order, and an empty slot's +0. expertOut is (E, S, M) at any block stride
// S ≥ Capacity. Both built-in Orders' GatherGrad and a World's sparse
// backward, which moves w·dy without an Order, take it from here.
func (p *DispatchPlan) slotWeightGrad(dy, expertOut *tensor.Tensor) *PlanGrad {
	pg := p.weightGrad()
	s, m := expertOut.Dim(1), expertOut.Dim(2)
	parallelExperts(p.Experts, func(e int) {
		toks, grad := p.SlotToken[e], pg.SlotWeight[e]
		out := func(slot int) []float64 { return expertOut.Data()[(e*s+slot)*m:][:m] }
		// Two occupied slots at a time: each sum keeps its own column order,
		// and the second chain of adds runs in the first one's latency.
		slot := 0
		for ; slot+1 < len(toks) && toks[slot] >= 0 && toks[slot+1] >= 0; slot += 2 {
			d0, d1, o0, o1 := dy.Row(toks[slot])[:m], dy.Row(toks[slot+1])[:m], out(slot), out(slot+1)
			a0, a1 := 0.0, 0.0
			for j := range m {
				a0 += d0[j] * o0[j]
				a1 += d1[j] * o1[j]
			}
			grad[slot], grad[slot+1] = a0, a1
		}
		for ; slot < len(toks); slot++ {
			if toks[slot] < 0 {
				continue
			}
			outRow, dot := out(slot), 0.0
			for j, v := range dy.Row(toks[slot]) {
				dot += v * outRow[j]
			}
			grad[slot] = dot
		}
	})
	return pg
}

// denseGrad returns the gradient of a dense plan's weights in the plan's
// memory, dirty: CombineW (N, E·T) for Order.GatherGrad and DispatchW
// (E·T, N) for the layer's backwardFinish, each to overwrite whole.
func (p *DispatchPlan) denseGrad(tokens int) *PlanGrad {
	g := &p.grad
	g.CombineW = reuseMat(g.CombineW, tokens, p.Slots())
	g.DispatchW = reuseMat(g.DispatchW, p.Slots(), tokens)
	return g
}
