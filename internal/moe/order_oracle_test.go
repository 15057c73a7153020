package moe

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// The oracle is Order as it was while it allocated and returned its
// results at stride T — the bodies are kept here, for the tests only — so
// the into-forms can be held to it bit for bit: same values at any stride,
// on dirty destinations, at any worker width.

func oracleSelection(plan *DispatchPlan, tokens int) *tensor.Tensor {
	s := tensor.New(plan.Slots(), tokens)
	for e := range plan.SlotToken {
		for slot, tok := range plan.SlotToken[e] {
			if tok >= 0 {
				s.Row(e*plan.Capacity + slot)[tok] = 1
			}
		}
	}
	return s
}

func oracleWeightedSelection(plan *DispatchPlan, tokens int) *tensor.Tensor {
	c := tensor.New(tokens, plan.Slots())
	for e := range plan.SlotToken {
		for slot, tok := range plan.SlotToken[e] {
			if tok >= 0 {
				c.Row(tok)[e*plan.Capacity+slot] = plan.SlotWeight[e][slot]
			}
		}
	}
	return c
}

type oracleOrder struct{ tutel bool }

func (o oracleOrder) sparse(plan *DispatchPlan) bool { return o.tutel && !plan.IsDense() }

func (o oracleOrder) Scatter(x *tensor.Tensor, plan *DispatchPlan) *tensor.Tensor {
	m := x.Dim(1)
	if o.sparse(plan) {
		out := tensor.New(plan.Experts, plan.Capacity, m)
		for e := range plan.SlotToken {
			for slot, tok := range plan.SlotToken[e] {
				if tok >= 0 {
					copy(out.Data()[(e*plan.Capacity+slot)*m:(e*plan.Capacity+slot+1)*m], x.Row(tok))
				}
			}
		}
		return out
	}
	sel := plan.DispatchW
	if !plan.IsDense() {
		sel = oracleSelection(plan, x.Dim(0))
	}
	out := tensor.New(plan.Slots(), m)
	tensor.MatMulInto(out, sel, x)
	return out.Reshape(plan.Experts, plan.Capacity, m)
}

func (o oracleOrder) Gather(expertOut *tensor.Tensor, plan *DispatchPlan, tokens int) *tensor.Tensor {
	m := expertOut.Dim(2)
	if o.sparse(plan) {
		out := tensor.New(tokens, m)
		for e := range plan.SlotToken {
			for slot, tok := range plan.SlotToken[e] {
				if tok < 0 {
					continue
				}
				w := plan.SlotWeight[e][slot]
				src := expertOut.Data()[(e*plan.Capacity+slot)*m : (e*plan.Capacity+slot+1)*m]
				dst := out.Row(tok)
				for j, v := range src {
					dst[j] += w * v
				}
			}
		}
		return out
	}
	w := plan.CombineW
	if !plan.IsDense() {
		w = oracleWeightedSelection(plan, tokens)
	}
	out := tensor.New(tokens, m)
	tensor.MatMulInto(out, w, expertOut.Reshape(plan.Slots(), m))
	return out
}

func (o oracleOrder) ScatterGrad(dScattered *tensor.Tensor, plan *DispatchPlan, tokens int) *tensor.Tensor {
	m := dScattered.Dim(2)
	if o.sparse(plan) {
		out := tensor.New(tokens, m)
		for e := range plan.SlotToken {
			for slot, tok := range plan.SlotToken[e] {
				if tok < 0 {
					continue
				}
				src := dScattered.Data()[(e*plan.Capacity+slot)*m : (e*plan.Capacity+slot+1)*m]
				dst := out.Row(tok)
				for j, v := range src {
					dst[j] += v
				}
			}
		}
		return out
	}
	sel := plan.DispatchW
	if !plan.IsDense() {
		sel = oracleSelection(plan, tokens)
	}
	return tensor.MatMulT1(sel, dScattered.Reshape(plan.Slots(), m))
}

func (o oracleOrder) GatherGrad(dy, expertOut *tensor.Tensor, plan *DispatchPlan) (*tensor.Tensor, *PlanGrad) {
	tokens, m := dy.Dim(0), dy.Dim(1)
	flatOut := expertOut.Reshape(plan.Slots(), m)
	if plan.IsDense() {
		dFlat := tensor.MatMulT1(plan.CombineW, dy)
		return dFlat.Reshape(plan.Experts, plan.Capacity, m), &PlanGrad{CombineW: tensor.MatMulT2(dy, flatOut)}
	}
	pg := &PlanGrad{SlotWeight: make([][]float64, plan.Experts)}
	var dOut *tensor.Tensor
	if o.tutel {
		dOut = tensor.New(plan.Experts, plan.Capacity, m)
	} else {
		dOut = tensor.MatMulT1(oracleWeightedSelection(plan, tokens), dy).Reshape(plan.Experts, plan.Capacity, m)
	}
	for e := range plan.SlotToken {
		pg.SlotWeight[e] = make([]float64, plan.Capacity)
		for slot, tok := range plan.SlotToken[e] {
			if tok < 0 {
				continue
			}
			w := plan.SlotWeight[e][slot]
			dyRow, outRow := dy.Row(tok), flatOut.Row(e*plan.Capacity+slot)
			dst := dOut.Data()[(e*plan.Capacity+slot)*m : (e*plan.Capacity+slot+1)*m]
			dot := 0.0
			for j := range dyRow {
				if o.tutel {
					dst[j] = w * dyRow[j]
				}
				dot += dyRow[j] * outRow[j]
			}
			pg.SlotWeight[e][slot] = dot
		}
	}
	return dOut, pg
}

// propertyPlan draws a plan for the Order property test: hard plans with a
// capacity that drops tokens and leaves empty slots, top-1 or top-2, or a
// dense one.
func propertyPlan(r *xrand.RNG, tokens, experts int, dense bool) *DispatchPlan {
	if dense {
		capacity := 1 + int(r.Uint64()%5)
		return &DispatchPlan{
			Experts: experts, Capacity: capacity,
			DispatchW: tensor.RandN(r, 1, experts*capacity, tokens),
			CombineW:  tensor.RandN(r, 1, tokens, experts*capacity),
		}
	}
	k := 1 + int(r.Uint64()%uint64(min(2, experts)))
	var asg []assignment
	for t := 0; t < tokens; t++ {
		perm := rand.New(r).Perm(experts)
		for j := 0; j < k; j++ {
			asg = append(asg, assignment{token: t, expert: perm[j], weight: 0.1 + r.Float64()})
		}
	}
	// Between "most tokens dropped" and "every expert has empty slots".
	return buildHardPlan(tokens, experts, 1+int(r.Uint64()%uint64(1+2*k*tokens/experts)), asg)
}

// strided lays an (E, T, M) tensor out at stride S with NaN pad rows: a
// source whose pad rows must not be read.
func strided(src *tensor.Tensor, stride int) *tensor.Tensor {
	e, t, m := src.Dim(0), src.Dim(1), src.Dim(2)
	out := nanTensor(e, stride, m)
	for i := 0; i < e; i++ {
		copy(out.Data()[i*stride*m:(i*stride+t)*m], src.Data()[i*t*m:(i+1)*t*m])
	}
	return out
}

// sameLive compares the live rows of got (E, S, M) with want (E, T, M) bit
// for bit, and requires got's pad rows — and, for hard plans, its empty
// slots — to read +0.
func sameLive(got, want *tensor.Tensor, plan *DispatchPlan) error {
	e, t, s, m := plan.Experts, plan.Capacity, got.Dim(1), got.Dim(2)
	for i := 0; i < e; i++ {
		for slot := 0; slot < s; slot++ {
			row := got.Data()[(i*s+slot)*m : (i*s+slot+1)*m]
			zero := slot >= t || (!plan.IsDense() && plan.SlotToken[i][slot] < 0)
			for j, v := range row {
				switch {
				case zero && math.Float64bits(v) != 0:
					return fmt.Errorf("expert %d row %d (pad or empty) col %d = %v, want +0", i, slot, j, v)
				case !zero && math.Float64bits(v) != math.Float64bits(want.Data()[(i*t+slot)*m+j]):
					return fmt.Errorf("expert %d slot %d col %d = %v, oracle %v", i, slot, j, v, want.Data()[(i*t+slot)*m+j])
				}
			}
		}
	}
	return nil
}

// sameBits is tensor's SameBits over slices; its error names the first
// element that differs.
func sameBits(got, want []float64) error {
	if tensor.FromData(got, len(got)).SameBits(tensor.FromData(want, len(want))) {
		return nil
	}
	for i := range min(len(got), len(want)) {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("element %d = %v, oracle %v", i, got[i], want[i])
		}
	}
	return fmt.Errorf("%d elements, oracle %d", len(got), len(want))
}

// TestOrderIntoFormsMatchOracle: 200 random hard plans (dropped tokens,
// empty slots, top-1 and top-2) and 40 dense ones, under both orders. Every
// into-form, at stride T and at a stride past T, on NaN-prefilled
// destinations and NaN source pad rows, at worker widths 1, 2 and 4 (the
// token-parallel Gather and ScatterGrad against the oracle's serial sweep),
// equals the allocate-and-return oracle bit for bit; pad rows and empty
// slots read +0. Inputs carry exact and negative zeros, so a −0 replacing a
// +0 would show.
func TestOrderIntoFormsMatchOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := xrand.New(777)
	for trial := 0; trial < 240; trial++ {
		tokens, experts, m := 1+int(rng.Uint64()%24), 1+int(rng.Uint64()%6), 1+int(rng.Uint64()%9)
		plan := propertyPlan(rng, tokens, experts, trial >= 200)
		tcap := plan.Capacity
		zeros := func(x *tensor.Tensor) *tensor.Tensor {
			for i := range x.Data() {
				switch int(rng.Uint64() % 12) {
				case 0:
					x.Data()[i] = 0
				case 1:
					x.Data()[i] = math.Copysign(0, -1)
				}
			}
			return x
		}
		x := zeros(tensor.RandN(rng, 1, tokens, m))
		dy := zeros(tensor.RandN(rng, 1, tokens, m))
		out := zeros(tensor.RandN(rng, 1, experts, tcap, m))
		dScat := zeros(tensor.RandN(rng, 1, experts, tcap, m))
		runtime.GOMAXPROCS([]int{1, 2, 4}[trial%3])

		for _, tutel := range []bool{false, true} {
			var ord Order = GShardOrder{}
			if tutel {
				ord = TutelOrder{}
			}
			oracle := oracleOrder{tutel: tutel}
			wantS := oracle.Scatter(x, plan)
			wantY := oracle.Gather(out, plan, tokens)
			wantDX := oracle.ScatterGrad(dScat, plan, tokens)
			wantDOut, wantPG := oracle.GatherGrad(dy, out, plan)

			for _, stride := range []int{tcap, tcap + 1 + int(rng.Uint64()%4)} {
				label := fmt.Sprintf("trial %d %T dense=%v N=%d E=%d T=%d S=%d M=%d", trial, ord, plan.IsDense(), tokens, experts, tcap, stride, m)
				plan.revN = 0 // a fresh plan per stride: the reverse index is rebuilt

				gotS := nanTensor(experts, stride, m)
				ord.Scatter(gotS, x, plan)
				if err := sameLive(gotS, wantS, plan); err != nil {
					t.Fatalf("%s: Scatter: %v", label, err)
				}
				gotY := nanTensor(tokens, m)
				ord.Gather(gotY, strided(out, stride), plan)
				if err := sameBits(gotY.Data(), wantY.Data()); err != nil {
					t.Fatalf("%s: Gather: %v", label, err)
				}
				gotDX := nanTensor(tokens, m)
				ord.ScatterGrad(gotDX, strided(dScat, stride), plan)
				if err := sameBits(gotDX.Data(), wantDX.Data()); err != nil {
					t.Fatalf("%s: ScatterGrad: %v", label, err)
				}
				gotDOut := nanTensor(experts, stride, m)
				gotPG := ord.GatherGrad(gotDOut, dy, strided(out, stride), plan)
				if err := sameLive(gotDOut, wantDOut, plan); err != nil {
					t.Fatalf("%s: GatherGrad: %v", label, err)
				}
				if plan.IsDense() {
					if err := sameBits(gotPG.CombineW.Data(), wantPG.CombineW.Data()); err != nil {
						t.Fatalf("%s: GatherGrad combine-weight gradient: %v", label, err)
					}
					continue
				}
				for e := range wantPG.SlotWeight {
					if err := sameBits(gotPG.SlotWeight[e], wantPG.SlotWeight[e]); err != nil {
						t.Fatalf("%s: GatherGrad slot-weight gradient, expert %d: %v", label, e, err)
					}
				}
			}
		}
	}
}
