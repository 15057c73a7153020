package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, c := range []*Cluster{TestbedA(), TestbedB()} {
		if c.Nodes <= 0 || c.GPUsPerNode <= 0 {
			t.Errorf("%s: nodes and GPUs per node must be positive", c.Name)
		}
		if c.BetaGEMM <= 0 || c.BetaA2A <= 0 || c.BetaAG <= 0 || c.BetaRS <= 0 || c.BetaAR <= 0 {
			t.Errorf("%s: non-positive beta coefficients", c.Name)
		}
	}
}

func TestPresetGeometry(t *testing.T) {
	a := TestbedA()
	if a.Nodes*a.GPUsPerNode != 48 || a.Nodes != 6 || a.GPUsPerNode != 8 {
		t.Fatalf("Testbed A geometry wrong: %d nodes × %d", a.Nodes, a.GPUsPerNode)
	}
	b := TestbedB()
	if b.Nodes*b.GPUsPerNode != 32 || b.Nodes != 8 || b.GPUsPerNode != 4 {
		t.Fatalf("Testbed B geometry wrong: %d nodes × %d", b.Nodes, b.GPUsPerNode)
	}
}

func TestCostLinearity(t *testing.T) {
	c := TestbedA()
	for _, kind := range []OpKind{OpA2A, OpAG, OpRS, OpAR, OpGEMM} {
		t1 := c.Cost(kind, 1e6)
		t2 := c.Cost(kind, 2e6)
		alpha := 2*t1 - t2 // for a linear model, 2(α+βn) - (α+2βn) = α
		var wantAlpha float64
		switch kind {
		case OpA2A:
			wantAlpha = c.AlphaA2A
		case OpAG:
			wantAlpha = c.AlphaAG
		case OpRS:
			wantAlpha = c.AlphaRS
		case OpAR:
			wantAlpha = c.AlphaAR
		case OpGEMM:
			wantAlpha = c.AlphaGEMM
		}
		if math.Abs(alpha-wantAlpha) > 1e-9 {
			t.Errorf("%s: recovered alpha %v, want %v", kind, alpha, wantAlpha)
		}
	}
}

func TestZeroSizeCostsNothing(t *testing.T) {
	c := TestbedB()
	for _, kind := range []OpKind{OpA2A, OpAG, OpRS, OpAR, OpGEMM, OpA2AFlat} {
		if got := c.Cost(kind, 0); got != 0 {
			t.Errorf("Cost(%s, 0) = %v, want 0", kind, got)
		}
	}
	if c.CostFlatA2A(0, 8) != 0 {
		t.Error("CostFlatA2A(0) should be 0")
	}
}

func TestFlatA2ASlowerThanHierarchical(t *testing.T) {
	for _, c := range []*Cluster{TestbedA(), TestbedB()} {
		for _, n := range []float64{1e5, 1e6, 1e7} {
			flat := c.CostFlatA2A(n, c.Nodes)
			hier := c.Cost(OpA2A, n)
			if flat <= hier {
				t.Errorf("%s n=%g: flat %v should exceed hierarchical %v", c.Name, n, flat, hier)
			}
		}
	}
}

func TestFlatA2AGrowsWithPeers(t *testing.T) {
	c := TestbedA()
	prev := 0.0
	for peers := 1; peers <= 8; peers++ {
		cur := c.CostFlatA2A(1e6, peers)
		if cur < prev {
			t.Fatalf("flat A2A not monotone in peers at %d", peers)
		}
		prev = cur
	}
}

func TestMeasuredNoiseBoundedAndDeterministic(t *testing.T) {
	c := TestbedA()
	f := func(raw uint64) bool {
		n := float64(raw%1_000_000_000) + 1
		for _, kind := range []OpKind{OpA2A, OpAG, OpRS, OpAR, OpGEMM} {
			ideal := c.Cost(kind, n)
			m1 := c.Measured(kind, n)
			m2 := c.Measured(kind, n)
			if m1 != m2 {
				return false // must be deterministic
			}
			if math.Abs(m1-ideal) > ideal*c.NoiseAmp*1.0001 {
				return false // must be bounded
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseVaries(t *testing.T) {
	c := TestbedA()
	// Not all noise draws should be identical; check a spread exists.
	distinct := map[float64]bool{}
	for i := 1; i <= 50; i++ {
		n := float64(i) * 1e5
		distinct[c.Measured(OpA2A, n)/c.Cost(OpA2A, n)] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("noise looks degenerate: %d distinct ratios", len(distinct))
	}
}

func TestIntraVsInterOrdering(t *testing.T) {
	// The premise of §4: per byte, intra-node collectives are faster than
	// inter-node ones on both testbeds (NVLink or PCIe vs the NIC).
	for _, c := range []*Cluster{TestbedA(), TestbedB()} {
		if c.BetaAG >= c.BetaA2A {
			t.Errorf("%s: beta_ag %v should undercut beta_a2a %v", c.Name, c.BetaAG, c.BetaA2A)
		}
		if c.BetaRS >= c.BetaA2A {
			t.Errorf("%s: beta_rs %v should undercut beta_a2a %v", c.Name, c.BetaRS, c.BetaA2A)
		}
		if c.BetaAR < c.BetaA2A {
			t.Errorf("%s: allreduce should be the most expensive per byte", c.Name)
		}
		if c.IIOContention < 0 || c.IIOContention > 1 {
			t.Errorf("%s: contention %v outside [0,1]", c.Name, c.IIOContention)
		}
	}
}

func TestWithGPUs(t *testing.T) {
	a := TestbedA()
	small := a.WithGPUs(16)
	if small.Nodes != 2 || small.GPUsPerNode != 8 || small.Nodes*small.GPUsPerNode != 16 {
		t.Fatalf("WithGPUs(16): %+v", small)
	}
	if a.Nodes != 6 {
		t.Fatal("WithGPUs must not mutate the receiver")
	}
}

func TestWithGPUsPanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TestbedA().WithGPUs(17)
}

func TestCanonicalScenario(t *testing.T) {
	s, err := CanonicalScenario(TestbedA(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.NMP != 8 || s.NESP != 8 || s.NEP != 6 || s.NPP != 1 {
		t.Fatalf("scenario = %+v", s)
	}
	if s.NESP > s.Cluster.GPUsPerNode {
		t.Error("ESP group must be intra-node in the canonical scenario")
	}
	if s.NEP*s.Cluster.GPUsPerNode <= s.Cluster.GPUsPerNode {
		t.Error("EP span must be inter-node")
	}
}

func TestCanonicalScenarioWithPP(t *testing.T) {
	s, err := CanonicalScenario(TestbedA(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NPP != 2 || s.NEP != 3 {
		t.Fatalf("scenario with PP = %+v", s)
	}
	if _, err := CanonicalScenario(TestbedA(), 5); err == nil {
		t.Fatal("6 nodes with NPP=5 should error")
	}
}
