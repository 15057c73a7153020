// Package moe implements the MoE layer itself: the six sub-modules of §3.1
// (Gate, Order, I-Order, Dispatch, Combine, Expert) plus the hook points,
// all running real math on CPU tensors.
//
// The package is the "flexible framework" half of the paper: every
// sub-module is an interface with multiple interchangeable implementations
// (five gating functions, two ordering functions, two expert types, three
// AlltoAll algorithms via internal/comm), and the layer itself is assembled
// from them without invasive changes — the modularization claim of §3.1.
package moe

import (
	"fmt"

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

	rev *slotIndex // slotsOf's result, nil until first asked
}

// IsDense reports whether the plan uses soft (dense) routing.
func (p *DispatchPlan) IsDense() bool { return p.DispatchW != nil }

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

// buildHardPlan packs assignments into slots in token order, dropping
// over-capacity assignments, which is the standard GShard capacity
// semantics. capacity <= 0 means f=∗: the capacity becomes the realized
// maximum expert load (no drops).
func buildHardPlan(tokens, experts, capacity int, asg []assignment) *DispatchPlan {
	load := make([]int, experts)
	for _, a := range asg {
		load[a.expert]++
	}
	if capacity <= 0 {
		capacity = 1
		for _, l := range load {
			if l > capacity {
				capacity = l
			}
		}
	}
	p := &DispatchPlan{Experts: experts, Capacity: capacity}
	p.SlotToken = make([][]int, experts)
	p.SlotWeight = make([][]float64, experts)
	next := make([]int, experts)
	for e := 0; e < experts; e++ {
		p.SlotToken[e] = make([]int, capacity)
		for s := range p.SlotToken[e] {
			p.SlotToken[e][s] = -1
		}
		p.SlotWeight[e] = make([]float64, capacity)
	}
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

// slotIndex is a hard plan's token → (expert, slot) reverse index: token
// t occupies pos[off[t]:off[t+1]], in ascending (expert, slot) order.
type slotIndex struct {
	off []int
	pos [][2]int
}

// slotsOf returns the plan's reverse index over tokens tokens, built on
// first use and kept: a plan is routed once and gathered through many times.
func (p *DispatchPlan) slotsOf(tokens int) *slotIndex {
	if p.rev != nil && len(p.rev.off) == tokens+1 {
		return p.rev
	}
	// Count each token's slots into off[t+1], prefix-sum, then place: off[t]
	// walks forward as token t's cursor and is shifted back afterwards.
	idx := &slotIndex{off: make([]int, tokens+1)}
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
	idx.pos = make([][2]int, idx.off[tokens])
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
	p.rev = idx
	return idx
}
