package moe

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestAuxBackwardNumeric checks ∂AuxLoss/∂W_g against central differences
// (the first-choice counts are piecewise constant, so away from routing
// boundaries the analytic gradient is exact).
func TestAuxBackwardNumeric(t *testing.T) {
	rng := xrand.New(5)
	g, err := NewGShardGate(GateConfig{Experts: testE, TopK: testK, Factor: 0}, testM, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(xrand.New(6), 1, testN, testM)

	auxOf := func() float64 {
		plan, _, err := g.Route(x, false)
		if err != nil {
			t.Fatal(err)
		}
		return plan.AuxLoss
	}
	zeroGrads(g.Params())
	_, rc, err := g.Route(x, false)
	if err != nil {
		t.Fatal(err)
	}
	dx := g.AuxBackward(rc, 1.0)

	wg := g.Params()[0]
	const eps = 1e-6
	for i := 0; i < wg.W.Size(); i += 7 {
		orig := wg.W.Data()[i]
		wg.W.Data()[i] = orig + eps
		up := auxOf()
		wg.W.Data()[i] = orig - eps
		down := auxOf()
		wg.W.Data()[i] = orig
		num := (up - down) / (2 * eps)
		ana := wg.G.Data()[i]
		if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("aux wg grad[%d]: numeric %v vs analytic %v", i, num, ana)
		}
	}
	// Input gradient too.
	for i := 0; i < x.Size(); i += 11 {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		up := auxOf()
		x.Data()[i] = orig - eps
		down := auxOf()
		x.Data()[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-dx.Data()[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("aux dx[%d]: numeric %v vs analytic %v", i, num, dx.Data()[i])
		}
	}
}

// TestAuxLossTrainingBalancesLoad: starting from a gate whose weights send
// nearly every token to one expert, descending the auxiliary loss alone
// must spread the load — the purpose of the §2.1 balancing term.
func TestAuxLossTrainingBalancesLoad(t *testing.T) {
	rng := xrand.New(9)
	g, err := NewGShardGate(GateConfig{Experts: 4, TopK: 1, Factor: 0}, testM, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Bias the gate toward expert 0: shrink the competing columns so the
	// inflated expert-0 scores win for most tokens (≈2× the balanced
	// 16/64 share).
	wg := g.Params()[0]
	for i := 0; i < wg.W.Dim(0); i++ {
		wg.W.Row(i)[0] += 2.0
		for e := 1; e < 4; e++ {
			wg.W.Row(i)[e] *= 0.3
		}
	}
	x := tensor.RandN(xrand.New(10), 1, 64, testM)

	maxLoad := func() (int, float64) {
		plan, _, err := g.Route(x, false)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, 4)
		for e := range plan.SlotToken {
			for _, tok := range plan.SlotToken[e] {
				if tok >= 0 {
					counts[e]++
				}
			}
		}
		m := 0
		for _, c := range counts {
			if c > m {
				m = c
			}
		}
		return m, plan.AuxLoss
	}
	before, auxBefore := maxLoad()
	if before < 30 {
		t.Fatalf("setup failed: expected an imbalanced gate, max load %d/64", before)
	}
	const lr = 0.5
	for step := 0; step < 100; step++ {
		zeroGrads(g.Params())
		_, rc, err := g.Route(x, false)
		if err != nil {
			t.Fatal(err)
		}
		g.AuxBackward(rc, 1.0)
		for _, p := range g.Params() {
			w, gr := p.W.Data(), p.G.Data()
			for i := range w {
				w[i] -= lr * gr[i]
			}
		}
	}
	after, auxAfter := maxLoad()
	if after >= before {
		t.Fatalf("aux training did not rebalance: max load %d -> %d", before, after)
	}
	if auxAfter >= auxBefore {
		t.Fatalf("aux loss did not decrease: %v -> %v", auxBefore, auxAfter)
	}
	if after > 26 {
		t.Fatalf("load still imbalanced after training: %d/64 on one expert", after)
	}
}
