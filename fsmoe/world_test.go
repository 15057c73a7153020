package fsmoe

import (
	"errors"
	"strings"
	"testing"
)

// plainExpert implements only the base Expert contract — no chunked or
// sharded fast paths — for strategy-validation tests.
type plainExpert struct{ id int }

func (*plainExpert) Name() string { return "plain" }
func (*plainExpert) Forward(x *Tensor) (*Tensor, ExpertCache) {
	return x.Clone(), nil
}
func (*plainExpert) Backward(_ ExpertCache, dy *Tensor) *Tensor { return dy.Clone() }
func (*plainExpert) Params() []*Param                           { return nil }
func (*plainExpert) FwdMACs(n int) float64                      { return float64(n) }
func (*plainExpert) ParamBytes() float64                        { return 0 }

func worldTestLayer(t *testing.T) *Layer {
	t.Helper()
	l, err := NewLayer(LayerConfig{
		M: 32, H: 64, Experts: 8, TopK: 2, CapacityFactor: 1.25, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestWorldMatchesLayer: the public multi-rank pipelined path agrees
// bit-for-bit with the single-rank Layer path.
func TestWorldMatchesLayer(t *testing.T) {
	layer := worldTestLayer(t)
	x := RandTensor(91, 96, 32)
	dy := RandTensor(92, 96, 32)

	layer.ZeroGrad()
	wantY, cache, err := layer.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	wantDx, err := layer.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	var wantGrads []*Tensor
	for _, p := range layer.Params() {
		wantGrads = append(wantGrads, p.G.Clone())
	}

	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	layer.ZeroGrad()
	gotY, wc, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	gotDx, err := w.Backward(wc, dy)
	if err != nil {
		t.Fatal(err)
	}
	if gotY.MaxAbsDiff(wantY) != 0 || gotDx.MaxAbsDiff(wantDx) != 0 {
		t.Fatal("world output or input gradient differs from the layer path")
	}
	for i, p := range layer.Params() {
		if p.G.MaxAbsDiff(wantGrads[i]) != 0 {
			t.Fatalf("param grad %d differs from the layer path", i)
		}
	}
	if w.LastTrace() == nil || w.LastTrace().Makespan <= 0 {
		t.Fatal("world did not record a measured trace")
	}
}

// TestWorldAutoDegree: with PipelineDegree 0, Algorithm 1 picks the
// degrees that execute — both at least 1, recorded with their predicted
// times, and the pass still runs.
func TestWorldAutoDegree(t *testing.T) {
	layer := worldTestLayer(t)
	w, err := NewWorld(layer, WorldConfig{Ranks: 2, BatchTokens: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !w.AutoDegree() {
		t.Fatal("expected automatic degree selection")
	}
	fwd, bwd := w.PipelineDegrees()
	if fwd < 1 || bwd < 1 {
		t.Fatalf("degrees (%d, %d) must be >= 1", fwd, bwd)
	}
	df, db := w.DegreeResults()
	if df.R != fwd || db.R != bwd || df.TMoE <= 0 || db.TMoE <= 0 {
		t.Fatalf("degree results inconsistent: %+v %+v", df, db)
	}
	x := RandTensor(93, 64, 32)
	y, wc, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Backward(wc, RandTensor(94, 64, 32)); err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 64 || y.Dim(1) != 32 {
		t.Fatalf("unexpected output shape %v", y.Shape())
	}
}

// TestWorldExplicitBwdDegree: the backward degree can differ from the
// forward one (the §2.3 motivation realized on the executable path).
func TestWorldExplicitBwdDegree(t *testing.T) {
	layer := worldTestLayer(t)
	w, err := NewWorld(layer, WorldConfig{Ranks: 2, PipelineDegree: 4, PipelineDegreeBwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := w.PipelineDegrees()
	if fwd != 4 || bwd != 2 {
		t.Fatalf("degrees (%d, %d), want (4, 2)", fwd, bwd)
	}
}

// TestWorldStrategySurface: explicit strategies execute bit-identically
// to the Layer path, and each reports its name.
func TestWorldStrategySurface(t *testing.T) {
	x := RandTensor(95, 96, 32)
	dy := RandTensor(96, 96, 32)
	for _, strat := range []Strategy{StrategyEP, StrategyESP, StrategyHybrid} {
		layer := worldTestLayer(t)
		layer.ZeroGrad()
		wantY, cache, err := layer.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		wantDx, err := layer.Backward(cache, dy)
		if err != nil {
			t.Fatal(err)
		}
		cfg := WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: strat}
		if strat == StrategyHybrid {
			cfg.GroupSize = 2
		}
		w, err := NewWorld(layer, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if w.Strategy() != strat || w.AutoStrategy() {
			t.Fatalf("strategy = %q auto=%v, want explicit %q", w.Strategy(), w.AutoStrategy(), strat)
		}
		if strat == StrategyHybrid && w.GroupSize() != 2 {
			t.Fatalf("GroupSize() = %d, want the configured 2", w.GroupSize())
		}
		layer.ZeroGrad()
		gotY, wc, err := w.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		gotDx, err := w.Backward(wc, dy)
		if err != nil {
			t.Fatal(err)
		}
		if gotY.MaxAbsDiff(wantY) != 0 || gotDx.MaxAbsDiff(wantDx) != 0 {
			t.Fatalf("strategy %s differs from the layer path", strat)
		}
	}
}

// TestWorldAutoStrategy: StrategyAuto resolves from the layer — dense
// gates get DenseSlots (and the previously rejected SoftMoE world now
// runs end to end), and a hard-routing layer gets a hard strategy whose
// degrees come from that strategy's volumes.
func TestWorldAutoStrategy(t *testing.T) {
	soft, err := NewLayer(LayerConfig{
		M: 32, H: 48, Experts: 8, TopK: 1, CapacityFactor: 1,
		Gate: GateSoftMoE, SlotsPerExpert: 3, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := RandTensor(97, 96, 32)
	dy := RandTensor(98, 96, 32)
	soft.ZeroGrad()
	wantY, cache, err := soft.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	wantDx, err := soft.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(soft, WorldConfig{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy() != StrategyDenseSlots || !w.AutoStrategy() {
		t.Fatalf("auto strategy for SoftMoE = %q (auto=%v), want %q", w.Strategy(), w.AutoStrategy(), StrategyDenseSlots)
	}
	soft.ZeroGrad()
	gotY, wc, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	gotDx, err := w.Backward(wc, dy)
	if err != nil {
		t.Fatal(err)
	}
	if gotY.MaxAbsDiff(wantY) != 0 || gotDx.MaxAbsDiff(wantDx) != 0 {
		t.Fatal("dense-slots world differs from the layer path")
	}

	hard := worldTestLayer(t)
	hw, err := NewWorld(hard, WorldConfig{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	switch s := hw.Strategy(); s {
	case StrategyEP, StrategyESP:
		if hw.GroupSize() != 0 {
			t.Fatalf("pure strategy %q carries GroupSize %d", s, hw.GroupSize())
		}
	case StrategyHybrid:
		if g := hw.GroupSize(); g <= 1 || g >= 4 || 4%g != 0 {
			t.Fatalf("auto hybrid picked an edge or non-divisor group size %d", g)
		}
	default:
		t.Fatalf("auto strategy for hard routing = %q", s)
	}
	if !hw.AutoDegree() {
		t.Fatal("auto strategy should still run Algorithm 1 for the degrees")
	}
}

// TestWorldESPRequiresShardedExperts: the public surface propagates the
// strategy-aware validation message.
func TestWorldESPRequiresShardedExperts(t *testing.T) {
	layer, err := NewLayer(LayerConfig{
		M: 32, H: 16, Experts: 2, TopK: 1, CapacityFactor: 1, Seed: 3,
		CustomExperts: []Expert{&plainExpert{id: 0}, &plainExpert{id: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewWorld(layer, WorldConfig{Ranks: 2, PipelineDegree: 1, Strategy: StrategyESP})
	if err == nil {
		t.Fatal("ESP with plain custom experts must fail")
	}
	if !strings.Contains(err.Error(), string(StrategyESP)) || !strings.Contains(err.Error(), "StagedExpert") {
		t.Fatalf("error must name the strategy and the missing contract: %v", err)
	}
}

// TestWorldFaultSurface exercises the public fault-tolerance API end to
// end: a transient chaos pass recovers bit-identically with visible
// retry events, a permanent rank-down completes degraded with an
// accurate DegradedResult, ResetHealth restores full strength, and a
// closed world fails fast with ErrWorldClosed.
func TestWorldFaultSurface(t *testing.T) {
	layer := worldTestLayer(t)
	x := RandTensor(93, 96, 32)
	dy := RandTensor(94, 96, 32)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2})
	if err != nil {
		t.Fatal(err)
	}
	pass := func() *Tensor {
		t.Helper()
		layer.ZeroGrad()
		y, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Backward(cache, dy); err != nil {
			t.Fatal(err)
		}
		return y
	}
	ref := pass()

	// Transient chaos on every collective kind; cap 2 under 4 attempts.
	w.SetFaultPlan(NewFaultPlan(FaultSpec{
		Seed: 21,
		KindProb: map[string]float64{
			KindAlltoAll: 0.5, KindAllGather: 0.5, KindReduceScatter: 0.5,
		},
		CollectiveProb:       0.3,
		MaxTransientsPerTask: 2,
	}))
	y := pass()
	if y.MaxAbsDiff(ref) != 0 {
		t.Fatal("chaos pass diverged from fault-free pass")
	}

	// Permanent rank-down: degraded completion with an accurate report.
	w.SetFaultPlan(NewFaultPlan(FaultSpec{
		Seed: 22, Down: &FaultDown{Rank: 1, Kind: KindExperts},
	}))
	pass()
	deg := w.LastDegraded()
	if deg == nil || deg.Rank != 1 || len(deg.LostExperts) != 2 {
		t.Fatalf("LastDegraded = %+v, want rank 1 with 2 lost experts", deg)
	}
	if h := w.Health(); h[1] {
		t.Fatal("rank 1 still healthy after permanent failure")
	}

	// Recovery and close semantics.
	w.SetFaultPlan(nil)
	w.ResetHealth()
	if y2 := pass(); y2.MaxAbsDiff(ref) != 0 {
		t.Fatal("post-ResetHealth pass diverged from fault-free pass")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("double Close = %v, want ErrWorldClosed", err)
	}
	if _, _, err := w.Forward(x, false); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("Forward after Close = %v, want ErrWorldClosed", err)
	}
}

// TestWorldHybridSurface pins the public hybrid plumbing: an explicit
// hybrid world with an unset group size lets the 2-D grid pick a divisor
// of the rank count, misconfiguration errors name the strategy and field,
// and a calibrated hybrid world draws its degrees from the measured
// hybrid cells while staying bit-identical to the testbed-driven world.
func TestWorldHybridSurface(t *testing.T) {
	layer := worldTestLayer(t)

	// Unset GroupSize with explicit hybrid: grid-picked divisor.
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, Strategy: StrategyHybrid})
	if err != nil {
		t.Fatal(err)
	}
	g := w.GroupSize()
	if g < 1 || 4%g != 0 {
		t.Fatalf("grid-picked GroupSize %d is not a divisor of 4", g)
	}
	if w.AutoStrategy() {
		t.Fatal("explicit hybrid must not report AutoStrategy")
	}
	if !w.AutoDegree() {
		t.Fatal("unset degrees under hybrid must come from Algorithm 1")
	}
	w.Close()

	// Misconfiguration fails at NewWorld, naming strategy and field.
	if _, err := NewWorld(layer, WorldConfig{Ranks: 4, Strategy: StrategyHybrid, GroupSize: 3}); err == nil ||
		!strings.Contains(err.Error(), string(StrategyHybrid)) || !strings.Contains(err.Error(), "GroupSize") {
		t.Fatalf("GroupSize=3 over 4 ranks: %v", err)
	}

	// Calibrated hybrid: degrees picked from the measured hybrid cells,
	// output bit-identical to the uncalibrated world.
	cal, err := Calibrate(layer, CalibrateConfig{Ranks: 4, Tokens: 96, Degrees: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	x := RandTensor(41, 96, 32)
	dy := RandTensor(42, 96, 32)
	cw, err := NewWorld(layer, WorldConfig{Ranks: 4, Strategy: StrategyHybrid, GroupSize: 2, BatchTokens: 96, Calibration: cal})
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	f, b := cw.PipelineDegrees()
	if f < 1 || f > 16 || b < 1 || b > 16 {
		t.Fatalf("calibrated hybrid degrees out of range: fwd=%d bwd=%d", f, b)
	}
	layer.ZeroGrad()
	y1, c1, err := cw.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Backward(c1, dy); err != nil {
		t.Fatal(err)
	}
	ref, err := NewWorld(layer, WorldConfig{
		Ranks: 4, Strategy: StrategyHybrid, GroupSize: 2, PipelineDegree: f, PipelineDegreeBwd: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	layer.ZeroGrad()
	y2, c2, err := ref.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Backward(c2, dy); err != nil {
		t.Fatal(err)
	}
	if y1.MaxAbsDiff(y2) != 0 {
		t.Fatal("calibrated hybrid world differs from the testbed-driven hybrid world")
	}
}
