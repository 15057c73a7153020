package moe

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// randomHardPlan builds a random but valid hard plan for property tests.
func randomHardPlan(r *xrand.RNG, tokens, experts, k int) *DispatchPlan {
	var asg []assignment
	for t := 0; t < tokens; t++ {
		perm := rand.New(r).Perm(experts)
		for j := 0; j < k && j < experts; j++ {
			asg = append(asg, assignment{token: t, expert: perm[j], weight: 0.1 + r.Float64()})
		}
	}
	return buildHardPlan(tokens, experts, 0, asg)
}

// The helpers below run Order's into-forms the way a caller without a
// workspace would: a fresh destination at stride T, prefilled with NaN so a
// row the method fails to write shows.
func nanTensor(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.Fill(math.NaN())
	return t
}

func scatter(ord Order, x *tensor.Tensor, plan *DispatchPlan) *tensor.Tensor {
	dst := nanTensor(plan.Experts, plan.Capacity, x.Dim(1))
	ord.Scatter(dst, x, plan)
	return dst
}

func gather(ord Order, out *tensor.Tensor, plan *DispatchPlan, tokens int) *tensor.Tensor {
	y := nanTensor(tokens, out.Dim(2))
	ord.Gather(y, out, plan)
	return y
}

func scatterGrad(ord Order, g *tensor.Tensor, plan *DispatchPlan, tokens int) *tensor.Tensor {
	dx := nanTensor(tokens, g.Dim(2))
	ord.ScatterGrad(dx, g, plan)
	return dx
}

func gatherGrad(ord Order, dy, out *tensor.Tensor, plan *DispatchPlan) (*tensor.Tensor, *PlanGrad) {
	dOut := nanTensor(out.Shape()...)
	return dOut, ord.GatherGrad(dOut, dy, out, plan)
}

// TestOrdersProduceIdenticalLayouts is the §3.1 interchangeability claim:
// the GShard einsum ordering and the Tutel sparse ordering must be
// bit-compatible in both directions.
func TestOrdersProduceIdenticalLayouts(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		tokens := 1 + int(r.Uint64()%16)
		experts := 1 + int(r.Uint64()%6)
		k := 1 + int(r.Uint64()%uint64(experts))
		m := 1 + int(r.Uint64()%8)
		plan := randomHardPlan(r, tokens, experts, k)
		x := tensor.RandN(r, 1, tokens, m)

		sg := scatter(GShardOrder{}, x, plan)
		st := scatter(TutelOrder{}, x, plan)
		if !allClose(sg, st, 1e-12) {
			return false
		}
		out := tensor.RandN(r, 1, experts, plan.Capacity, m)
		gg := gather(GShardOrder{}, out, plan, tokens)
		gt := gather(TutelOrder{}, out, plan, tokens)
		return allClose(gg, gt, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderInverse is the I-Order property: gathering the scattered layout
// with unit weights restores the original tokens (for plans where every
// token occupies exactly one slot).
func TestOrderInverse(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		tokens := 1 + int(r.Uint64()%16)
		experts := 1 + int(r.Uint64()%6)
		m := 1 + int(r.Uint64()%8)
		plan := randomHardPlan(r, tokens, experts, 1) // k=1: one slot per token
		// Force unit weights so gather is an exact inverse.
		for e := range plan.SlotWeight {
			for s := range plan.SlotWeight[e] {
				if plan.SlotToken[e][s] >= 0 {
					plan.SlotWeight[e][s] = 1
				}
			}
		}
		x := tensor.RandN(r, 1, tokens, m)
		for _, ord := range []Order{GShardOrder{}, TutelOrder{}} {
			y := gather(ord, scatter(ord, x, plan), plan, tokens)
			if !allClose(y, x, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterDroppedTokensZero(t *testing.T) {
	// Token 1's assignment is dropped (capacity 1); its slot must not exist
	// and the gathered output for it must be zero.
	asg := []assignment{
		{token: 0, expert: 0, weight: 1},
		{token: 1, expert: 0, weight: 1},
	}
	plan := buildHardPlan(2, 1, 1, asg)
	if plan.Dropped != 1 {
		t.Fatalf("dropped = %d", plan.Dropped)
	}
	r := xrand.New(5)
	x := tensor.RandN(r, 1, 2, 4)
	for _, ord := range []Order{GShardOrder{}, TutelOrder{}} {
		y := gather(ord, scatter(ord, x, plan), plan, 2)
		for j := 0; j < 4; j++ {
			if y.Row(1)[j] != 0 {
				t.Fatalf("%T: dropped token got output %v", ord, y.Row(1))
			}
		}
	}
}

func TestScatterGradIsAdjoint(t *testing.T) {
	// <Scatter(x), G> == <x, ScatterGrad(G)> for all x, G — the defining
	// property of a correct linear-operator backward.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		tokens := 1 + int(r.Uint64()%10)
		experts := 1 + int(r.Uint64()%4)
		m := 1 + int(r.Uint64()%6)
		plan := randomHardPlan(r, tokens, experts, 1+int(r.Uint64()%uint64(experts)))
		x := tensor.RandN(r, 1, tokens, m)
		g := tensor.RandN(r, 1, experts, plan.Capacity, m)
		for _, ord := range []Order{GShardOrder{}, TutelOrder{}} {
			lhs := lossOf(scatter(ord, x, plan), g)
			rhs := lossOf(x, scatterGrad(ord, g, plan, tokens))
			if math.Abs(lhs-rhs) > 1e-8*(1+math.Abs(lhs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherGradMatchesNumeric(t *testing.T) {
	r := xrand.New(11)
	tokens, experts, m := 6, 3, 4
	plan := randomHardPlan(r, tokens, experts, 2)
	out := tensor.RandN(r, 1, experts, plan.Capacity, m)
	dy := tensor.RandN(r, 1, tokens, m)

	for _, ord := range []Order{GShardOrder{}, TutelOrder{}} {
		dOut, pg := gatherGrad(ord, dy, out, plan)
		// Adjoint on the data path: <Gather(out), dy> == <out, dOut>.
		lhs := lossOf(gather(ord, out, plan, tokens), dy)
		rhs := lossOf(out, dOut)
		if math.Abs(lhs-rhs) > 1e-8 {
			t.Fatalf("%T: gather adjoint broken: %v vs %v", ord, lhs, rhs)
		}
		// Weight gradient numerically.
		const eps = 1e-6
		for e := 0; e < experts; e++ {
			for s := 0; s < plan.Capacity; s++ {
				if plan.SlotToken[e][s] < 0 {
					continue
				}
				orig := plan.SlotWeight[e][s]
				plan.SlotWeight[e][s] = orig + eps
				up := lossOf(gather(ord, out, plan, tokens), dy)
				plan.SlotWeight[e][s] = orig - eps
				down := lossOf(gather(ord, out, plan, tokens), dy)
				plan.SlotWeight[e][s] = orig
				num := (up - down) / (2 * eps)
				if math.Abs(num-pg.SlotWeight[e][s]) > 1e-5*(1+math.Abs(num)) {
					t.Fatalf("%T: weight grad (%d,%d): numeric %v vs %v", ord, e, s, num, pg.SlotWeight[e][s])
				}
			}
		}
	}
}

func TestDensePlanOrderPaths(t *testing.T) {
	// Dense (SoftMoE) plans must route through the matmul formulation in
	// both orders identically.
	r := xrand.New(21)
	tokens, experts, capacity, m := 5, 2, 3, 4
	slots := experts * capacity
	plan := &DispatchPlan{
		Experts:   experts,
		Capacity:  capacity,
		DispatchW: tensor.RandN(r, 1, slots, tokens),
		CombineW:  tensor.RandN(r, 1, tokens, slots),
	}
	x := tensor.RandN(r, 1, tokens, m)
	sg := scatter(GShardOrder{}, x, plan)
	st := scatter(TutelOrder{}, x, plan)
	if !allClose(sg, st, 1e-12) {
		t.Fatal("dense scatter differs between orders")
	}
	out := tensor.RandN(r, 1, experts, capacity, m)
	gg := gather(GShardOrder{}, out, plan, tokens)
	gt := gather(TutelOrder{}, out, plan, tokens)
	if !allClose(gg, gt, 1e-12) {
		t.Fatal("dense gather differs between orders")
	}
}
