package fsmoe

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestNewLayerAllKinds(t *testing.T) {
	for _, gate := range []GateKind{GateGShard, GateSigmoid, GateXMoE, GateEC, GateSoftMoE} {
		for _, order := range []OrderKind{OrderGShard, OrderTutel} {
			for _, exp := range []ExpertKind{ExpertGPT, ExpertMixtral} {
				l, err := NewLayer(LayerConfig{
					M: 8, H: 16, Experts: 4, TopK: 2, CapacityFactor: 0,
					Gate: gate, Order: order, Expert: exp, Seed: 7,
				})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", gate, order, exp, err)
				}
				x := RandTensor(3, 2, 5, 8)
				y, cache, err := l.Forward(x, false)
				if err != nil {
					t.Fatalf("%s/%s/%s forward: %v", gate, order, exp, err)
				}
				if !sameShape(y, x) {
					t.Fatalf("%s/%s/%s: output shape %v", gate, order, exp, y.Shape())
				}
				dx, err := l.Backward(cache, RandTensor(4, 2, 5, 8))
				if err != nil {
					t.Fatalf("%s/%s/%s backward: %v", gate, order, exp, err)
				}
				if !sameShape(dx, x) {
					t.Fatalf("%s/%s/%s: dx shape %v", gate, order, exp, dx.Shape())
				}
			}
		}
	}
}

func sameShape(a, b *Tensor) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := 0; i < a.Rank(); i++ {
		if a.Dim(i) != b.Dim(i) {
			return false
		}
	}
	return true
}

func TestNewLayerDefaults(t *testing.T) {
	l, err := NewLayer(LayerConfig{M: 8, H: 16, Experts: 2, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.Gate().Name() != "gshard" {
		t.Fatalf("default gate = %s", l.Gate().Name())
	}
	if len(l.Params()) == 0 {
		t.Fatal("no params")
	}
}

func TestNewLayerRejectsUnknownKinds(t *testing.T) {
	if _, err := NewLayer(LayerConfig{M: 8, H: 16, Experts: 2, TopK: 1, Gate: "bogus"}); err == nil {
		t.Fatal("unknown gate accepted")
	}
	if _, err := NewLayer(LayerConfig{M: 8, H: 16, Experts: 2, TopK: 1, Order: "bogus"}); err == nil {
		t.Fatal("unknown order accepted")
	}
	if _, err := NewLayer(LayerConfig{M: 8, H: 16, Experts: 2, TopK: 1, Expert: "bogus"}); err == nil {
		t.Fatal("unknown expert accepted")
	}
}

func TestDeterministicBySeed(t *testing.T) {
	mk := func() *Tensor {
		l, err := NewLayer(LayerConfig{M: 8, H: 16, Experts: 4, TopK: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		y, _, err := l.Forward(RandTensor(5, 6, 8), false)
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	if !mk().AllClose(mk(), 0) {
		t.Fatal("same seed must reproduce outputs exactly")
	}
}

// customGate verifies user extensions satisfy the public contracts.
type customGate struct{ inner Gate }

func (g *customGate) Name() string { return "custom" }
func (g *customGate) Route(x *Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	return g.inner.Route(x, train)
}
func (g *customGate) Backward(dx *Tensor, rc *RouteCache, pg *PlanGrad) {
	g.inner.Backward(dx, rc, pg)
}
func (g *customGate) Params() []*Param { return g.inner.Params() }

func TestCustomGatePluggable(t *testing.T) {
	base, err := NewLayer(LayerConfig{M: 8, H: 16, Experts: 2, TopK: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayer(LayerConfig{
		M: 8, H: 16, Experts: 2, TopK: 1, Seed: 5,
		CustomGate: &customGate{inner: base.Gate()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Gate().Name() != "custom" {
		t.Fatal("custom gate not installed")
	}
	if _, _, err := l.Forward(RandTensor(2, 4, 8), false); err != nil {
		t.Fatal(err)
	}
}

func TestHooksThroughPublicAPI(t *testing.T) {
	fired := 0
	l, err := NewLayer(LayerConfig{
		M: 8, H: 16, Experts: 2, TopK: 1, Seed: 3,
		Hooks: []Hooks{{
			BeforeMoeStart: func(x *Tensor) *Tensor { fired++; return x },
			BeforeMoeEnd:   func(x *Tensor) *Tensor { fired++; return x },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Forward(RandTensor(1, 3, 8), false); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("hooks fired %d times", fired)
	}
}

func TestSimulationFacade(t *testing.T) {
	a := TestbedA()
	spec := GPT2XLMoE(a)
	times, err := CompareSystems(a, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(AllSystems()) {
		t.Fatalf("times for %d systems", len(times))
	}
	sp := Speedups(times, SystemDSMoE)
	if sp[SystemFSMoE] <= 1 {
		t.Fatalf("FSMoE speedup %v", sp[SystemFSMoE])
	}
	one, err := SimulateModel(a, spec, SystemFSMoE)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one-times[SystemFSMoE]) > 1e-9 {
		t.Fatal("SimulateModel disagrees with CompareSystems")
	}
}

func TestSimulateLayerFacade(t *testing.T) {
	a := TestbedA()
	cfg := ConfigGrid(a)[0]
	res, err := SimulateLayer(a, cfg, SystemFSMoE)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 || res.Trace == nil {
		t.Fatal("bad layer simulation result")
	}
}

func TestProfileFacade(t *testing.T) {
	pm, err := Profile(TestbedB())
	if err != nil {
		t.Fatal(err)
	}
	if pm.A2A.R2 < 0.99 {
		t.Fatalf("A2A fit R2 = %v", pm.A2A.R2)
	}
}

func TestPPFacade(t *testing.T) {
	a := TestbedA()
	times, err := CompareSystemsPP(a, Mixtral7B(a), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(times[SystemFSMoE] < times[SystemDSMoE]) {
		t.Fatal("FSMoE should beat DS-MoE under PP")
	}
}

func TestOptimalDegreeFacade(t *testing.T) {
	a := TestbedA()
	s, err := CanonicalScenario(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := LayerVolumes(ConfigGrid(a)[100], s)
	fwd := OptimalDegree(a, v, 0, false)
	bwd := OptimalDegree(a, v, 0, true)
	if fwd.R < 1 || bwd.R < 1 {
		t.Fatalf("degrees: %d / %d", fwd.R, bwd.R)
	}
}

func TestTensorHelpers(t *testing.T) {
	z := NewTensor(2, 3)
	if tensor.Sum(z) != 0 {
		t.Fatal("NewTensor not zeroed")
	}
	r := RandTensor(1, 2, 3)
	if tensor.Sum(tensor.Mul(r, r)) == 0 {
		t.Fatal("RandTensor degenerate")
	}
}
