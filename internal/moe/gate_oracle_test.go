package moe

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// ecOracleRoute is ECGate's route as it was before the gate kept routing
// scratch: a fresh plan per Route, each expert's tokens the top of its
// column of logits by tensor.TopKInto.
func ecOracleRoute(g *ECGate, x *tensor.Tensor) *DispatchPlan {
	n, e := x.Dim(0), g.cfg.Experts
	capacity := CapacityFor(n, e, g.cfg.TopK, g.cfg.Factor)
	if capacity <= 0 {
		capacity = (g.cfg.TopK*n + e - 1) / e
	}
	if capacity > n {
		capacity = n
	}
	logits := tensor.New(n, e)
	tensor.MatMulInto(logits, x, g.wg.W)
	p := &DispatchPlan{Experts: e, Capacity: capacity, SlotToken: make([][]int, e), SlotWeight: make([][]float64, e)}
	col := make([]float64, n)
	for ei := 0; ei < e; ei++ {
		for t := 0; t < n; t++ {
			col[t] = logits.Row(t)[ei]
		}
		sel := make([]int, capacity)
		tensor.TopKInto(sel, col)
		w := make([]float64, len(sel))
		for j, tok := range sel {
			w[j] = col[tok]
		}
		tensor.SoftmaxInPlace(w)
		p.SlotToken[ei] = append([]int(nil), sel...)
		p.SlotWeight[ei] = w
	}
	return p
}

// ecOracleBackward is ECGate's backward as it was: dx and the gradient of
// W_g, added into dwg, from the oracle plan.
func ecOracleBackward(g *ECGate, dx, dwg, x *tensor.Tensor, p *DispatchPlan, grad *PlanGrad) {
	n, e := x.Dim(0), g.cfg.Experts
	dLogits := tensor.New(n, e)
	dl := make([]float64, p.Capacity)
	for ei := 0; ei < e; ei++ {
		clear(dl)
		if grad.SlotWeight != nil {
			copy(dl, grad.SlotWeight[ei])
		}
		maskedSoftmaxBackward(p.SlotWeight[ei], dl)
		for j, tok := range p.SlotToken[ei] {
			dLogits.Row(tok)[ei] = dl[j]
		}
	}
	tensor.MatMulT1AddInto(dwg, x, dLogits)
	tensor.MatMulT2Into(dx, dLogits, g.wg.W)
}

// samePlans reports where a hard plan differs from the oracle's: shape,
// drops, aux loss, and every slot's token and weight bits.
func samePlans(got, want *DispatchPlan) error {
	if got.Experts != want.Experts || got.Capacity != want.Capacity || got.Dropped != want.Dropped {
		return fmt.Errorf("E=%d T=%d dropped %d, oracle E=%d T=%d dropped %d",
			got.Experts, got.Capacity, got.Dropped, want.Experts, want.Capacity, want.Dropped)
	}
	if err := sameBits([]float64{got.AuxLoss}, []float64{want.AuxLoss}); err != nil {
		return fmt.Errorf("aux loss: %v", err)
	}
	for e := range want.SlotToken {
		if !slices.Equal(got.SlotToken[e], want.SlotToken[e]) {
			return fmt.Errorf("expert %d tokens %v, oracle %v", e, got.SlotToken[e], want.SlotToken[e])
		}
		if len(got.SlotWeight[e]) != len(want.SlotWeight[e]) {
			return fmt.Errorf("expert %d has %d weights, oracle %d", e, len(got.SlotWeight[e]), len(want.SlotWeight[e]))
		}
		if err := sameBits(got.SlotWeight[e], want.SlotWeight[e]); err != nil {
			return fmt.Errorf("expert %d weights: %v", e, err)
		}
	}
	return nil
}

// TestECGateMatchesOracle: the EC gate routing in its own scratch gives the
// allocating route's plans and weights, and its Backward the allocating
// backward's dx and W_g gradient, bit for bit — over capacity factors that
// cap, clip at N and leave capacity to f=∗, tied logits (repeated tokens)
// and a token count that changes between Routes, each Route reusing the
// scratch the Backward before it handed back.
func TestECGateMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		n, m, e, k int
		f          float64
	}{
		{37, 6, 4, 2, 1.2},
		{64, 16, 8, 2, 0},
		{9, 5, 4, 4, 3}, // capacity clipped at N
		{50, 8, 8, 1, 1.0},
		{37, 6, 4, 2, 1.2}, // back to the first shape
	} {
		name := fmt.Sprintf("N%d_M%d_E%d_k%d_f%v", tc.n, tc.m, tc.e, tc.k, tc.f)
		cfg := GateConfig{Experts: tc.e, TopK: tc.k, Factor: tc.f}
		g, err := NewECGate(cfg, tc.m, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		dwg := g.wg.G.Clone()
		rng := xrand.New(uint64(tc.n*tc.e + tc.k))
		for round := range 3 {
			x := tensor.RandN(rng, 1, tc.n, tc.m)
			copy(x.Row(tc.n-1), x.Row(0)) // two tokens with equal logits everywhere
			want := ecOracleRoute(g, x)
			got, rc, err := g.Route(x, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := samePlans(got, want); err != nil {
				t.Fatalf("%s round %d: plan: %v", name, round, err)
			}
			grad := &PlanGrad{SlotWeight: make([][]float64, tc.e)}
			for e := range grad.SlotWeight {
				grad.SlotWeight[e] = tensor.RandN(rng, 1, want.Capacity).Data()
			}
			wantDx, gotDx := tensor.New(tc.n, tc.m), tensor.New(tc.n, tc.m)
			ecOracleBackward(g, wantDx, dwg, x, want, grad)
			g.Backward(gotDx, rc, grad)
			if err := sameBits(gotDx.Data(), wantDx.Data()); err != nil {
				t.Fatalf("%s round %d: dx: %v", name, round, err)
			}
			if err := sameBits(g.wg.G.Data(), dwg.Data()); err != nil {
				t.Fatalf("%s round %d: W_g gradient: %v", name, round, err)
			}
		}
	}
}

// gshardNoisyOracle is GShard's noisy Route as the allocating formula:
// H(x) = x·W_g + N(0,1)·Softplus(x·W_noise) from whole-matrix products,
// the normals drawn row by row from rng, then each token's top-k by
// tensor.TopKInto, masked-softmax weights, the plan packed under the
// capacity, and the aux loss E·Σ_e f_e·p̄_e from the full row softmax.
func gshardNoisyOracle(g *GShardGate, x *tensor.Tensor, rng *xrand.RNG) *DispatchPlan {
	n, e, k := x.Dim(0), g.cfg.Experts, g.cfg.TopK
	sp, h := tensor.New(n, e), tensor.New(n, e)
	tensor.MatMulInto(sp, x, g.wnoise.W)
	tensor.MatMulInto(h, x, g.wg.W)
	tensor.AddInPlace(h, tensor.Mul(tensor.RandN(rng, 1, n, e), tensor.Apply(sp, tensor.SoftplusAt)))
	var asg []assignment
	first := make([]int, e)
	for t := 0; t < n; t++ {
		sel := make([]int, k)
		tensor.TopKInto(sel, h.Row(t))
		w := make([]float64, k)
		for j, ei := range sel {
			w[j] = h.Row(t)[ei]
		}
		tensor.SoftmaxInPlace(w)
		for j, ei := range sel {
			asg = append(asg, assignment{token: t, expert: ei, weight: w[j], choice: j})
		}
		first[sel[0]]++
	}
	p := buildHardPlan(n, e, CapacityFor(n, e, k, g.cfg.Factor), asg)
	probs := tensor.New(n, e)
	tensor.SoftmaxRowsInto(probs, h)
	for ei := 0; ei < e; ei++ {
		mean := 0.0
		for t := 0; t < n; t++ {
			mean += probs.Row(t)[ei]
		}
		p.AuxLoss += float64(first[ei]) / float64(n) * (mean / float64(n))
	}
	p.AuxLoss *= float64(e)
	return p
}

// TestGShardNoisyRouteMatchesFormula: GShard's train-mode Route, which
// routes in its own scratch, gives the allocating formula's plan, weights
// and aux loss bit for bit, and leaves its noise generator where drawing
// the same normals in the same order leaves a copy of it — over Routes that
// reuse the scratch, with and without capacity drops.
func TestGShardNoisyRouteMatchesFormula(t *testing.T) {
	for _, f := range []float64{0, 1.0} {
		cfg := GateConfig{Experts: 8, TopK: 2, Factor: f}
		g, err := NewGShardGate(cfg, 12, xrand.New(6))
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(60)
		for round := range 3 {
			x := tensor.RandN(rng, 0.5, 40+round, 12)
			oracle := xrand.New(0)
			oracle.SetState(g.RNGState())
			want := gshardNoisyOracle(g, x, oracle)
			got, rc, err := g.Route(x, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := samePlans(got, want); err != nil {
				t.Fatalf("f=%v round %d: %v", f, round, err)
			}
			s, gm := g.RNGState()
			if os, ogm := oracle.State(); s != os || gm != ogm {
				t.Fatalf("f=%v round %d: the noise generator is not where the formula's draws leave it", f, round)
			}
			g.Backward(tensor.New(x.Dim(0), 12), rc, &PlanGrad{})
		}
	}
}
