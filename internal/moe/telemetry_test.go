package moe

import (
	"math"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// zipfLayer builds a layer routed by the deterministic skewed ZipfGate —
// the known-ground-truth load distribution the telemetry assertions need.
func zipfLayer(t *testing.T, skew float64) *MOELayer {
	t.Helper()
	const m, e, topK, h = 32, 8, 2, 48
	rng := xrand.New(17)
	g, err := NewZipfGate(GateConfig{Experts: e, TopK: topK, Factor: 0}, m, skew, 99)
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]Expert, e)
	for i := range exps {
		if exps[i], err = NewGPTFFN(m, h, rng); err != nil {
			t.Fatal(err)
		}
	}
	layer, err := NewMOELayer(LayerConfig{M: m, Gate: g, Order: TutelOrder{}, Experts: exps})
	if err != nil {
		t.Fatal(err)
	}
	return layer
}

func TestZipfGateDeterministicSkew(t *testing.T) {
	const n, m = 64, 32
	g, err := NewZipfGate(GateConfig{Experts: 8, TopK: 2, Factor: 0}, m, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(xrand.New(3), 1, n, m)
	p1, _, err := g.Route(x, false)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := g.Route(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Validate(n); err != nil {
		t.Fatal(err)
	}
	l1, l2 := p1.ExpertLoad(), p2.ExpertLoad()
	total := 0
	for e := range l1 {
		if l1[e] != l2[e] {
			t.Fatalf("routing not deterministic: %v vs %v", l1, l2)
		}
		total += l1[e]
	}
	if total != n*2 {
		t.Fatalf("routed %d assignments, want %d (f=∗ never drops)", total, n*2)
	}
	// Zipf skew: expert 0 must carry strictly more than the tail expert.
	if l1[0] <= l1[len(l1)-1] {
		t.Fatalf("no skew: load %v", l1)
	}
}

func TestExpertLoadDense(t *testing.T) {
	p := &DispatchPlan{Experts: 3, Capacity: 5, DispatchW: tensor.New(15, 4), CombineW: tensor.New(4, 15)}
	for _, l := range p.ExpertLoad() {
		if l != 5 {
			t.Fatalf("dense load = %v, want Capacity per expert", p.ExpertLoad())
		}
	}
}

// TestStepMetricsStrategies is the acceptance matrix: a skewed Zipf-routed
// step under EP, ESP and Hybrid must emit StepMetrics whose overlap ratio
// and per-expert load histogram reflect the measured run.
func TestStepMetricsStrategies(t *testing.T) {
	const n, m = 48, 32
	cases := []struct {
		name string
		cfg  WorldConfig
	}{
		{"ep", WorldConfig{Ranks: 4, ChunksFwd: 2, Strategy: StrategyEP}},
		{"esp", WorldConfig{Ranks: 4, ChunksFwd: 2, Strategy: StrategyESP}},
		{"hybrid", WorldConfig{Ranks: 4, ChunksFwd: 2, Strategy: StrategyHybrid, GroupSize: 2}},
	}
	x := tensor.RandN(xrand.New(5), 1, n, m)
	dy := tensor.RandN(xrand.New(6), 1, n, m)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			cfg := tc.cfg
			cfg.Sink = telemetry.NewRegistrySink(reg)
			w, err := NewWorld(zipfLayer(t, 1.2), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			res, err := w.Step(x, dy, StepConfig{LR: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			mtr := res.Metrics
			if mtr == nil {
				t.Fatal("sink configured but Metrics is nil")
			}
			if mtr.Strategy != string(cfg.Strategy) || mtr.Ranks != 4 || mtr.Layers != 1 {
				t.Fatalf("identity mismatch: %+v", mtr)
			}
			if tc.name == "hybrid" && mtr.GroupSize != 2 {
				t.Fatalf("hybrid group size = %d, want 2", mtr.GroupSize)
			}
			// Overlap ratio: SerialMS over the pipelined wall, consistent
			// with its own ingredients. (At toy sizes goroutine scheduling
			// overhead can outweigh the overlap win, so we assert
			// definition and positivity here and the sequential-baseline
			// invariant below, not a fixed threshold.)
			if mtr.OverlapRatio <= 0 || mtr.SerialMS <= 0 {
				t.Fatalf("degenerate overlap: ratio=%v serial=%v", mtr.OverlapRatio, mtr.SerialMS)
			}
			if want := mtr.SerialMS / (mtr.ForwardMS + mtr.BackwardMS); math.Abs(mtr.OverlapRatio-want) > 1e-9 {
				t.Fatalf("overlap ratio %v inconsistent with serial/wall = %v", mtr.OverlapRatio, want)
			}
			// The wall is measured around the whole step, so it holds the
			// plans, the tail and a positive remainder outside them; the
			// sink's gauge observes that wall, not the sum of the parts.
			if mtr.WallMS != res.WallMS || mtr.OutsideMS() <= 0 {
				t.Fatalf("wall %v (result %v) = fwd %v + bwd %v + tail %v + outside %v",
					mtr.WallMS, res.WallMS, mtr.ForwardMS, mtr.BackwardMS, mtr.TailMS, mtr.OutsideMS())
			}
			if g := reg.Gauge("step_wall_ms").Value(); g != res.WallMS {
				t.Fatalf("step_wall_ms gauge = %v, measured wall %v", g, res.WallMS)
			}
			// Sequential execution cannot overlap anything: its wall is at
			// least the serial task time, so the ratio tops out at 1.
			seqRes, err := w.Step(x, dy, StepConfig{LR: 0.01, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			if r := seqRes.Metrics.OverlapRatio; r <= 0 || r > 1+1e-9 {
				t.Fatalf("sequential overlap ratio = %v, want in (0, 1]", r)
			}
			// Per-expert load: one layer, all n*topK assignments routed
			// (f=∗), visibly skewed.
			if len(mtr.ExpertTokens) != 1 {
				t.Fatalf("expert token layers = %d, want 1", len(mtr.ExpertTokens))
			}
			total := 0
			for _, l := range mtr.ExpertTokens[0] {
				total += l
			}
			if total != n*2 {
				t.Fatalf("routed tokens = %d, want %d", total, n*2)
			}
			if mtr.ExpertImbalance <= 1 || mtr.ExpertEntropy >= 1 || mtr.ExpertEntropy <= 0 {
				t.Fatalf("zipf load not skewed: entropy=%v imbalance=%v tokens=%v",
					mtr.ExpertEntropy, mtr.ExpertImbalance, mtr.ExpertTokens[0])
			}
			if mtr.DroppedTokens != 0 {
				t.Fatalf("f=∗ dropped %d tokens", mtr.DroppedTokens)
			}
			// The registry sink saw both steps (concurrent + sequential):
			// 8 load-histogram samples each, gauges holding the last step.
			snap := reg.Snapshot()
			if snap.Counters["step_total"] != 2 {
				t.Fatalf("step_total = %d, want 2", snap.Counters["step_total"])
			}
			if snap.Histograms["expert_load_tokens"].Count != 16 {
				t.Fatalf("load histogram samples = %d, want 16 (one per expert per step)",
					snap.Histograms["expert_load_tokens"].Count)
			}
			if got := snap.Gauges["step_overlap_ratio"]; math.Abs(got-seqRes.Metrics.OverlapRatio) > 1e-12 {
				t.Fatalf("gauge overlap %v != last step's overlap %v", got, seqRes.Metrics.OverlapRatio)
			}
		})
	}
}

// TestStepMetricsStack: a two-layer stack emits one record covering both
// layers, to each distinct sink exactly once.
func TestStepMetricsStack(t *testing.T) {
	const n, m = 48, 32
	var got []*telemetry.StepMetrics
	sink := telemetry.SinkFunc(func(sm *telemetry.StepMetrics) { got = append(got, sm) })
	mkWorld := func() *World {
		w, err := NewWorld(zipfLayer(t, 1.0), WorldConfig{Ranks: 2, ChunksFwd: 2, Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w0, w1 := mkWorld(), mkWorld()
	defer w0.Close()
	defer w1.Close()
	x := tensor.RandN(xrand.New(5), 1, n, m)
	dy := tensor.RandN(xrand.New(6), 1, n, m)
	for step := 0; step < 2; step++ {
		res, err := StepWorlds([]*World{w0, w1}, x, dy, StepConfig{LR: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Step != step {
			t.Fatalf("step ordinal = %d, want %d", res.Metrics.Step, step)
		}
		if res.Metrics.Layers != 2 || len(res.Metrics.ExpertTokens) != 2 {
			t.Fatalf("stack metrics cover %d layers, %d load rows; want 2, 2",
				res.Metrics.Layers, len(res.Metrics.ExpertTokens))
		}
	}
	// Same sink on both worlds: one emission per step, not one per world.
	if len(got) != 2 {
		t.Fatalf("sink saw %d emissions, want 2", len(got))
	}
	if w0.Steps() != 2 || w1.Steps() != 2 {
		t.Fatalf("step counters = %d/%d, want 2/2", w0.Steps(), w1.Steps())
	}
}

// TestStepNoSinkNoMetrics: without a sink the step must not build metrics,
// and the telemetry guard itself (stepSinks) must not allocate.
func TestStepNoSinkNoMetrics(t *testing.T) {
	const n, m = 48, 32
	w, err := NewWorld(zipfLayer(t, 1.0), WorldConfig{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	x := tensor.RandN(xrand.New(5), 1, n, m)
	dy := tensor.RandN(xrand.New(6), 1, n, m)
	res, err := w.Step(x, dy, StepConfig{LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Fatal("no sink configured but Metrics is non-nil")
	}
	worlds := []*World{w, w}
	if a := testing.AllocsPerRun(100, func() {
		if stepSinks(worlds) != nil {
			t.Fatal("phantom sink")
		}
	}); a != 0 {
		t.Fatalf("no-sink telemetry guard allocated %v times per run, want 0", a)
	}
}
