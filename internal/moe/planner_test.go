package moe

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gradsync"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// shapeLayer builds a layer the way the public constructor does for the
// benchmark's shapes — 8 experts, top-2 routing at capacity factor 1.2, one
// SoftMoE slot per expert, the gate drawn before the experts from one seed,
// and what the planner reads of the gate recorded on the layer.
func shapeLayer(t *testing.T, m, h int, gate string, mixtral bool, seed uint64) *MOELayer {
	t.Helper()
	const e = 8
	rng := xrand.New(seed)
	gcfg := GateConfig{Experts: e, TopK: 2, Factor: 1.2}
	var g Gate
	var err error
	switch gate {
	case "gshard":
		g, err = NewGShardGate(gcfg, m, rng)
	case "sigmoid":
		g, err = NewSigmoidGate(gcfg, m, rng)
	case "xmoe":
		g, err = NewXMoEGate(gcfg, m, rng)
	case "softmoe":
		g, err = NewSoftMoEGate(gcfg, m, 1, rng)
	default:
		t.Fatalf("unknown gate %q", gate)
	}
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]Expert, e)
	for i := range exps {
		if mixtral {
			exps[i], err = NewMixtralFFN(m, h, rng)
		} else {
			exps[i], err = NewGPTFFN(m, h, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewMOELayer(LayerConfig{M: m, Gate: g, Order: TutelOrder{}, Experts: exps, GateConfig: gcfg, SlotsPerExpert: 1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestStepVolumesPinned pins the §5 byte plan of one training step on each
// of the repository benchmark's four stacks (4 ranks, the benchmark's
// strategies and degrees): the bytes the backward plans hid, the exposed
// tail's bytes and the AllReduce slices emitted into the plans. They follow
// from the step's volumes (stepVolumes) and the partition alone, so a change
// to how a layer's volumes are derived that moves a byte shows here.
//
// Step 2's objective (Eq. 5) is flat around the optima of ep_compute and
// mixed_ckpt: every layer Case 1 prices (t_moe = 2r·t_a2a + tgar) pays the
// same for a byte, so bytes move between those layers' windows at equal
// cost, and the pinned plan is the point core's Step-2 tie rule picks.
// The differential-evolution solve these values replaced picked other
// points of the same flats, at equal objectives (5.643873216 and
// 6.478312192 ms): hidden 1977636 and 3005768, tail 2796252 and 1246392.
func TestStepVolumesPinned(t *testing.T) {
	type layer struct {
		gate  string
		strat Strategy
		group int
	}
	ep := layer{"gshard", StrategyEP, 0}
	for _, wl := range []struct {
		name         string
		m, h, n      int
		degree       int
		layers       []layer
		hidden, tail float64
		slices       int
	}{
		{"ep_tokens", 512, 16, 384, 4, []layer{ep, ep, ep}, 1147904, 573952, 8},
		{"ep_compute", 64, 384, 256, 2, []layer{ep, ep, ep}, 3182592, 1591296, 9},
		{"ep_params", 256, 320, 64, 2, []layer{ep, ep}, 5277696, 5277696, 4},
		{"mixed_ckpt", 128, 128, 160, 2, []layer{
			ep,
			{"xmoe", StrategyESP, 0},
			{"sigmoid", StrategyHybrid, 2},
			{"softmoe", StrategyDenseSlots, 0},
		}, 3187200, 1064960, 14},
	} {
		t.Run(wl.name, func(t *testing.T) {
			worlds := make([]*World, len(wl.layers))
			for i, k := range wl.layers {
				l := shapeLayer(t, wl.m, wl.h, k.gate, false, 1010+uint64(i))
				w, err := NewWorld(l, WorldConfig{Ranks: 4, PipelineDegree: wl.degree, Strategy: k.strat, GroupSize: k.group})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				worlds[i] = w
			}
			x := tensor.RandN(xrand.New(1001), 1, wl.n, wl.m)
			dy := tensor.RandN(xrand.New(1002), 1e-4, wl.n, wl.m)
			res, err := StepWorlds(worlds, x, dy, StepConfig{LR: 0.01, Strategy: gradsync.StrategyFSMoE})
			if err != nil {
				t.Fatal(err)
			}
			r := res.Report
			if r.HiddenBytes != wl.hidden || r.TailBytes != wl.tail || r.Slices != wl.slices {
				t.Fatalf("byte plan: hidden %v tail %v slices %d; pinned hidden %v tail %v slices %d",
					r.HiddenBytes, r.TailBytes, r.Slices, wl.hidden, wl.tail, wl.slices)
			}
		})
	}
}

// TestAutoPicksPinned pins what StrategyAuto and the automatic pipeline
// degrees resolve to on the benchmark's layer shapes and on shapes that
// drive Algorithm 1 to r > 1 and to different forward and backward
// degrees: strategy, group size, the degrees and Algorithm 1's results,
// which the World built from the same configuration executes. A change to
// the planner's cost model or volumes that moves a pick shows here first.
func TestAutoPicksPinned(t *testing.T) {
	// The public constructor's gate and expert kind names, which the table
	// is written in.
	const GateGShard, GateXMoE, GateSigmoid, GateSoftMoE = "gshard", "xmoe", "sigmoid", "softmoe"
	const ExpertGPT, ExpertMixtral = "gpt-ffn", "mixtral-ffn"
	const c2, c3, c4 = "case2-compute", "case3-alltoall", "case4-intranode"
	type pick struct {
		strat        Strategy
		g, fwd, bwd  int
		caseF, caseB string
	}
	for _, tc := range []struct {
		m, h, n int
		gate    string
		expert  string
		strat   Strategy
		want    pick
	}{
		{m: 512, h: 16, n: 384, want: pick{StrategyESP, 0, 1, 1, c2, c2}},
		{m: 64, h: 384, n: 256, want: pick{StrategyEP, 0, 1, 1, c2, c2}},
		{m: 256, h: 320, n: 64, want: pick{StrategyEP, 0, 1, 1, c2, c2}},
		{m: 128, h: 128, n: 160, gate: GateGShard, want: pick{StrategyEP, 0, 1, 1, c2, c2}},
		{m: 128, h: 128, n: 160, gate: GateXMoE, want: pick{StrategyEP, 0, 1, 1, c2, c2}},
		{m: 128, h: 128, n: 160, gate: GateSigmoid, want: pick{StrategyEP, 0, 1, 1, c2, c2}},
		{m: 128, h: 128, n: 160, gate: GateSoftMoE, strat: StrategyDenseSlots, want: pick{StrategyDenseSlots, 0, 1, 1, c2, c2}},
		{m: 128, h: 128, n: 160, gate: GateSoftMoE, want: pick{StrategyEP, 0, 1, 1, c2, c2}},
		{m: 128, h: 128, n: 160, gate: GateSigmoid, strat: StrategyHybrid, want: pick{StrategyHybrid, 1, 1, 1, c2, c2}},
		{m: 64, h: 1024, n: 65536, want: pick{StrategyESP, 0, 1, 2, c2, c4}},
		{m: 64, h: 1024, n: 16384, expert: ExpertMixtral, want: pick{StrategyEP, 0, 1, 2, c2, c3}},
		{m: 64, h: 1024, n: 65536, expert: ExpertMixtral, want: pick{StrategyEP, 0, 2, 2, c3, c3}},
		{m: 256, h: 512, n: 65536, want: pick{StrategyESP, 0, 2, 2, c4, c4}},
		{m: 256, h: 512, n: 16384, expert: ExpertMixtral, want: pick{StrategyESP, 0, 1, 2, c2, c4}},
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
			l := shapeLayer(t, tc.m, tc.h, gate, expert == ExpertMixtral, 1)
			cfg := WorldConfig{Ranks: 4, Strategy: tc.strat, BatchTokens: tc.n}
			mc, g, df, db, err := resolve(l, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if df.R != mc.PipelineDegree || db.R != mc.PipelineDegreeBwd {
				t.Fatalf("degree results R = (%d, %d), resolved (%d, %d)", df.R, db.R, mc.PipelineDegree, mc.PipelineDegreeBwd)
			}
			got := pick{mc.Strategy, mc.GroupSize, mc.PipelineDegree, mc.PipelineDegreeBwd, df.Case.String(), db.Case.String()}
			if got != tc.want {
				t.Errorf("picked %+v, want %+v", got, tc.want)
			}
			w, err := NewWorld(l, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			fwd, bwd := w.PipelineDegrees()
			if w.Strategy() != mc.Strategy || w.GroupSize() != mc.GroupSize || w.g != g || fwd != mc.PipelineDegree || bwd != mc.PipelineDegreeBwd {
				t.Errorf("world executes %s GroupSize %d at width %d r=(%d, %d), resolved %+v at width %d", w.Strategy(), w.GroupSize(), w.g, fwd, bwd, mc, g)
			}
		})
	}
}

// TestResolveDegreeResults: resolve reports the Algorithm-1 results behind
// the degrees it picks — under an explicit strategy, under StrategyAuto and
// with an explicit hybrid's grid-picked group size — and the zero value for
// a phase whose degree was configured, while the World executes what
// resolve picked.
func TestResolveDegreeResults(t *testing.T) {
	l := shapeLayer(t, 32, 64, "gshard", false, 11)
	for _, tc := range []struct {
		name string
		cfg  WorldConfig
	}{
		{"ep", WorldConfig{Ranks: 2, Strategy: StrategyEP, BatchTokens: 4096}},
		{"auto", WorldConfig{Ranks: 4}},
		{"hybrid-auto-g", WorldConfig{Ranks: 4, Strategy: StrategyHybrid}},
		{"explicit-bwd", WorldConfig{Ranks: 2, Strategy: StrategyEP, BatchTokens: 4096, PipelineDegreeBwd: 7}},
	} {
		rc, g, df, db, err := resolve(l, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(l, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fwd, bwd := w.PipelineDegrees()
		w.Close()
		if w.g != g {
			t.Fatalf("%s: resolved width %d, executing %d", tc.name, g, w.g)
		}
		if df.R != fwd || df.TMoE <= 0 || fwd != rc.PipelineDegree || bwd != rc.PipelineDegreeBwd {
			t.Fatalf("%s: forward result %+v, resolved %+v, executing (%d, %d)", tc.name, df, rc, fwd, bwd)
		}
		if tc.cfg.PipelineDegreeBwd != 0 {
			// An explicit backward degree overrides Algorithm 1's.
			if bwd != tc.cfg.PipelineDegreeBwd || db != (core.DegreeResult{}) {
				t.Fatalf("%s: executing backward %d, result %+v; want %d and the zero value", tc.name, bwd, db, tc.cfg.PipelineDegreeBwd)
			}
		} else if db.R != bwd || db.TMoE <= 0 {
			t.Fatalf("%s: backward result %+v, executing %d", tc.name, db, bwd)
		}
	}
}
