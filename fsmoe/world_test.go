package fsmoe

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

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

// TestWorldMethodSet pins the public method set of *World. World is an
// alias of the runtime's type, so a method exported there is public API
// here; this list is where that shows.
func TestWorldMethodSet(t *testing.T) {
	want := []string{
		"Backward", "Close", "Forward", "GroupSize", "Health", "LastDegraded",
		"LastPlan", "LastTrace", "PipelineDegrees", "Ranks", "ResetHealth",
		"ResourcePlan", "SetDeadline", "SetFaultPlan", "SetRetry",
		"SetSequential", "Stats", "Strategy",
	}
	typ := reflect.TypeFor[*World]()
	var got []string
	for i := range typ.NumMethod() {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*World methods = %q\nwant %q", got, want)
	}
}

// TestExpertMethodSet pins the expert contract, the way TestWorldMethodSet
// pins *World's methods: a custom expert implements exactly these, and every
// strategy drives it through them alone.
func TestExpertMethodSet(t *testing.T) {
	want := []string{
		"Begin", "BwdBands", "FwdBands", "FwdMACs", "HiddenWidth", "Name",
		"Params", "ScratchElems",
	}
	typ := reflect.TypeFor[Expert]()
	var got []string
	for i := range typ.NumMethod() {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Expert methods = %q\nwant %q", got, want)
	}
}

// TestLayerConfigFields pins the fields of LayerConfig, sorted by name, the
// way TestWorldMethodSet pins the methods of *World: a field added there is
// a settable value added to the public API.
func TestLayerConfigFields(t *testing.T) {
	want := []string{
		"CapacityFactor", "CustomExperts", "CustomGate", "CustomOrder",
		"Expert", "Experts", "Gate", "H", "Hooks", "M", "Order", "Seed",
		"SlotsPerExpert", "TopK", "XMoELowRank", "XMoETau", "ZipfSkew",
	}
	typ := reflect.TypeFor[LayerConfig]()
	var got []string
	for i := range typ.NumField() {
		got = append(got, typ.Field(i).Name)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("LayerConfig fields = %q\nwant %q", got, want)
	}
}

// TestWorldConfigFields pins the fields of WorldConfig, sorted by name, the
// way TestLayerConfigFields pins LayerConfig's.
func TestWorldConfigFields(t *testing.T) {
	want := []string{
		"Algo", "BatchTokens", "GPUsPerNode", "GroupSize", "PipelineDegree",
		"PipelineDegreeBwd", "Ranks", "Sink", "Strategy",
	}
	typ := reflect.TypeFor[WorldConfig]()
	var got []string
	for i := range typ.NumField() {
		got = append(got, typ.Field(i).Name)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("WorldConfig fields = %q\nwant %q", got, want)
	}
}

// TestLayerMethodSet pins the public method set of *Layer, the way
// TestWorldMethodSet pins *World's.
func TestLayerMethodSet(t *testing.T) {
	want := []string{"Backward", "Forward", "Gate", "Params", "ZeroGrad"}
	typ := reflect.TypeFor[*Layer]()
	var got []string
	for i := range typ.NumMethod() {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Layer methods = %q\nwant %q", got, want)
	}
}

// TestWorldAutoDegree: with PipelineDegree 0, Algorithm 1 picks the
// degrees that execute — both at least 1 — and the pass still runs. (That
// the picks are Algorithm 1's results is the runtime's planner test.)
func TestWorldAutoDegree(t *testing.T) {
	layer := worldTestLayer(t)
	w, err := NewWorld(layer, WorldConfig{Ranks: 2, BatchTokens: 4096})
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := w.PipelineDegrees()
	if fwd < 1 || bwd < 1 {
		t.Fatalf("degrees (%d, %d) must be >= 1", fwd, bwd)
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

	// An explicit backward degree overrides Algorithm 1's; the forward one
	// is still Algorithm 1's.
	ew, err := NewWorld(layer, WorldConfig{Ranks: 2, BatchTokens: 4096, PipelineDegreeBwd: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ew.Close()
	if efwd, ebwd := ew.PipelineDegrees(); efwd != fwd || ebwd != 7 {
		t.Fatalf("explicit backward degree: executing (%d, %d), want (%d, 7)", efwd, ebwd, fwd)
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
		if w.Strategy() != strat {
			t.Fatalf("strategy = %q, want explicit %q", w.Strategy(), strat)
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
	if w.Strategy() != StrategyDenseSlots {
		t.Fatalf("auto strategy for SoftMoE = %q, want %q", w.Strategy(), StrategyDenseSlots)
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
	if f, b := hw.PipelineDegrees(); f < 1 || b < 1 {
		t.Fatalf("auto strategy should still run Algorithm 1 for the degrees: (%d, %d)", f, b)
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
// and a hybrid world whose degrees Algorithm 1 chose is bit-identical to
// one configured with those degrees.
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
	if w.Strategy() != StrategyHybrid {
		t.Fatalf("explicit hybrid resolved to %q", w.Strategy())
	}
	if f, b := w.PipelineDegrees(); f < 1 || b < 1 {
		t.Fatalf("unset degrees under hybrid must come from Algorithm 1: (%d, %d)", f, b)
	}
	w.Close()

	// Misconfiguration fails at NewWorld, naming strategy and field.
	if _, err := NewWorld(layer, WorldConfig{Ranks: 4, Strategy: StrategyHybrid, GroupSize: 3}); err == nil ||
		!strings.Contains(err.Error(), string(StrategyHybrid)) || !strings.Contains(err.Error(), "GroupSize") {
		t.Fatalf("GroupSize=3 over 4 ranks: %v", err)
	}

	// Automatic degrees at a configured group size: the same output as the
	// world configured with the degrees Algorithm 1 chose.
	x := RandTensor(41, 96, 32)
	dy := RandTensor(42, 96, 32)
	cw, err := NewWorld(layer, WorldConfig{Ranks: 4, Strategy: StrategyHybrid, GroupSize: 2, BatchTokens: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	f, b := cw.PipelineDegrees()
	if f < 1 || f > 16 || b < 1 || b > 16 {
		t.Fatalf("automatic hybrid degrees out of range: fwd=%d bwd=%d", f, b)
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
		t.Fatal("hybrid world with automatic degrees differs from the configured one")
	}
}

// TestAutoPicksPinned pins what StrategyAuto and the automatic pipeline
// degrees execute on the benchmark's layer shapes and on shapes that drive
// Algorithm 1 to r > 1 and to different forward and backward degrees, as
// the public World reports them: strategy, group size and the degrees. The
// runtime's planner test of the same name pins Algorithm 1's results
// behind these picks.
func TestAutoPicksPinned(t *testing.T) {
	type pick struct {
		strat       Strategy
		g, fwd, bwd int
	}
	for _, tc := range []struct {
		m, h, n int
		gate    GateKind
		expert  ExpertKind
		strat   Strategy
		want    pick
	}{
		{m: 512, h: 16, n: 384, want: pick{StrategyESP, 0, 1, 1}},
		{m: 64, h: 384, n: 256, want: pick{StrategyEP, 0, 1, 1}},
		{m: 256, h: 320, n: 64, want: pick{StrategyEP, 0, 1, 1}},
		{m: 128, h: 128, n: 160, gate: GateGShard, want: pick{StrategyEP, 0, 1, 1}},
		{m: 128, h: 128, n: 160, gate: GateXMoE, want: pick{StrategyEP, 0, 1, 1}},
		{m: 128, h: 128, n: 160, gate: GateSigmoid, want: pick{StrategyEP, 0, 1, 1}},
		{m: 128, h: 128, n: 160, gate: GateSoftMoE, strat: StrategyDenseSlots, want: pick{StrategyDenseSlots, 0, 1, 1}},
		{m: 128, h: 128, n: 160, gate: GateSigmoid, strat: StrategyHybrid, want: pick{StrategyHybrid, 1, 1, 1}},
		{m: 64, h: 1024, n: 65536, want: pick{StrategyESP, 0, 1, 2}},
		{m: 64, h: 1024, n: 16384, expert: ExpertMixtral, want: pick{StrategyEP, 0, 1, 2}},
		{m: 64, h: 1024, n: 65536, expert: ExpertMixtral, want: pick{StrategyEP, 0, 2, 2}},
		{m: 256, h: 512, n: 65536, want: pick{StrategyESP, 0, 2, 2}},
		{m: 256, h: 512, n: 16384, expert: ExpertMixtral, want: pick{StrategyESP, 0, 1, 2}},
	} {
		gate, expert := tc.gate, tc.expert
		if gate == "" {
			gate = GateGShard
		}
		if expert == "" {
			expert = ExpertGPT
		}
		strat := tc.strat
		if strat == StrategyAuto {
			strat = "auto"
		}
		name := fmt.Sprintf("M%d_H%d_N%d_%s_%s_%s", tc.m, tc.h, tc.n, gate, expert, strat)
		t.Run(name, func(t *testing.T) {
			l, err := NewLayer(LayerConfig{
				M: tc.m, H: tc.h, Experts: 8, TopK: 2, CapacityFactor: 1.2,
				Gate: gate, Expert: expert, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorld(l, WorldConfig{Ranks: 4, Strategy: tc.strat, BatchTokens: tc.n})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			fwd, bwd := w.PipelineDegrees()
			if got := (pick{w.Strategy(), w.GroupSize(), fwd, bwd}); got != tc.want {
				t.Errorf("world executes %+v, want %+v", got, tc.want)
			}
		})
	}
}
