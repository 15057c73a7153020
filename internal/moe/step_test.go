package moe

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gradsync"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// stepStack builds L identical-seeded layers (per gate construction in
// worldLayer) wrapped in Worlds. Rebuilding with the same arguments
// always yields bit-identical initial parameters.
func stepStack(t *testing.T, layers, ranks, chunks int, wrap bool) []*World {
	t.Helper()
	ws := make([]*World, layers)
	for i := 0; i < layers; i++ {
		l := worldLayer(t, "gshard", TutelOrder{}, false, wrap)
		w, err := NewWorld(l, WorldConfig{Ranks: ranks, PipelineDegree: chunks, Strategy: StrategyEP})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// refStep runs the sequential single-rank reference: forward/backward
// through L MOELayers' oracles (layer_oracle_test.go) and an SGD step,
// returning the flattened post-step parameters in the stack's gradElems
// layout.
func refStep(t *testing.T, layers []*MOELayer, x, dy *tensor.Tensor, lr float64) []float64 {
	t.Helper()
	caches := make([]*oracleLayerCache, len(layers))
	cur := x
	for i, l := range layers {
		l.ZeroGrad()
		y, c, err := oracleLayerForward(l, cur, false)
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = c
		cur = y
	}
	dcur := dy
	for i := len(layers) - 1; i >= 0; i-- {
		dx, err := oracleLayerBackward(layers[i], caches[i], dcur)
		if err != nil {
			t.Fatal(err)
		}
		dcur = dx
	}
	var flat []float64
	for _, l := range layers {
		for _, p := range l.Params() {
			wd, gd := p.W.Data(), p.G.Data()
			for k := range wd {
				flat = append(flat, wd[k]-lr*gd[k])
			}
		}
	}
	return flat
}

// TestWorldStepBitIdentical is the §5 acceptance matrix: StepWorlds must
// leave one row of post-step parameters, bit-identical across all three
// strategies, across (R, r), and to the sequential single-rank reference
// step.
// The token count makes the per-expert capacity (30) indivisible by R=4,
// exercising the slot-padding path.
func TestWorldStepBitIdentical(t *testing.T) {
	const layers, lr = 2, 0.05
	x := tensor.RandN(xrand.New(61), 1, 96, 32)
	dy := tensor.RandN(xrand.New(62), 1, 96, 32)

	refLayers := make([]*MOELayer, layers)
	for i := range refLayers {
		refLayers[i] = worldLayer(t, "gshard", TutelOrder{}, false, false)
	}
	want := refStep(t, refLayers, x, dy, lr)

	strategies := []gradsync.Strategy{
		gradsync.StrategyFSMoE, gradsync.StrategyFixedChunk, gradsync.StrategyNoOverlap,
	}
	for _, ranks := range []int{1, 4} {
		for _, chunks := range []int{1, 3} {
			for _, strat := range strategies {
				label := fmt.Sprintf("R=%d r=%d strategy=%s", ranks, chunks, strat)
				ws := stepStack(t, layers, ranks, chunks, false)
				res, err := StepWorlds(ws, x, dy, StepConfig{
					LR: lr, Strategy: strat, ChunkBytes: 64 << 10, Slices: 3,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameRow(t, label, res, want)
				total := res.Report.HiddenBytes + res.Report.TailBytes
				if total != res.Report.TotalBytes {
					t.Fatalf("%s: synced %v of %v bytes", label, total, res.Report.TotalBytes)
				}
			}
		}
	}
}

// TestWorldStepFallbackExperts: custom experts, seen only through the
// Expert interface, step to the same parameters as the reference.
func TestWorldStepFallbackExperts(t *testing.T) {
	const lr = 0.1
	x := tensor.RandN(xrand.New(71), 1, 96, 32)
	dy := tensor.RandN(xrand.New(72), 1, 96, 32)
	ref := []*MOELayer{worldLayer(t, "gshard", TutelOrder{}, false, true)}
	want := refStep(t, ref, x, dy, lr)
	ws := stepStack(t, 1, 4, 2, true)
	res, err := StepWorlds(ws, x, dy, StepConfig{LR: lr})
	if err != nil {
		t.Fatal(err)
	}
	sameRow(t, "custom experts", res, want)
}

// TestStepColumnShardsMatchOracle: expert passes are bound once and re-armed
// by every forward, and under ESP and Hybrid a pass multiplies by its copy
// of W1's (and W3's) hidden columns. A stack of an ESP world and a Hybrid
// g = 2 world at R = 4, over GPT and over Mixtral experts, stepped four
// times at LR > 0 holds the sequential oracle's parameters, stepped
// alongside, bit for bit: a pass that kept the columns an earlier step
// copied would run on stale weights.
func TestStepColumnShardsMatchOracle(t *testing.T) {
	const lr, steps = 0.05, 4
	x := tensor.RandN(xrand.New(75), 1, 96, 32)
	dy := tensor.RandN(xrand.New(76), 1, 96, 32)
	cfgs := []WorldConfig{
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP},
		{Ranks: 4, PipelineDegree: 3, Strategy: StrategyHybrid, GroupSize: 2},
	}
	for _, mixtral := range []bool{false, true} {
		ref, ws := make([]*MOELayer, len(cfgs)), make([]*World, len(cfgs))
		for i, cfg := range cfgs {
			ref[i] = worldLayer(t, "gshard", TutelOrder{}, mixtral, false)
			w, err := NewWorld(worldLayer(t, "gshard", TutelOrder{}, mixtral, false), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			ws[i] = w
		}
		for s := range steps {
			label := fmt.Sprintf("mixtral=%v step %d", mixtral, s)
			want := refStep(t, ref, x, dy, lr)
			res, err := StepWorlds(ws, x, dy, StepConfig{LR: lr})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(res.RankParams) != 1 || !tensor.FromData(res.RankParams[0], len(want)).SameBits(tensor.FromData(want, len(want))) {
				t.Fatalf("%s: the stack's parameters differ from the oracle's", label)
			}
			off := 0 // the oracle takes the step too
			for _, l := range ref {
				for _, p := range l.Params() {
					off += copy(p.W.Data(), want[off:])
				}
			}
		}
	}
}

// TestStepKeepsOneParameterCopy: the parameters live once. After one step
// at R = 4 under every placement strategy (ESP and Hybrid g = 2 over dense
// routing too) and every §5 sync strategy, the result holds one parameter
// row, and it is the live Param.W values, flattened in Params order (gate,
// then experts), bit for bit.
func TestStepKeepsOneParameterCopy(t *testing.T) {
	x := tensor.RandN(xrand.New(75), 1, 96, 32)
	dy := tensor.RandN(xrand.New(76), 1, 96, 32)
	for _, tc := range []struct {
		wc    WorldConfig
		dense bool
	}{
		{WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP}, false},
		{WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP}, false},
		{WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2}, false},
		{WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyDenseSlots}, true},
		{WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP}, true},
		{WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2}, true},
	} {
		for _, strat := range []gradsync.Strategy{gradsync.StrategyFSMoE, gradsync.StrategyFixedChunk, gradsync.StrategyNoOverlap} {
			ws := routingStack(t, 2, tc.wc, tc.dense)
			res, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.05, Strategy: strat, ChunkBytes: 64 << 10, Slices: 3})
			if err != nil {
				t.Fatal(err)
			}
			sameRow(t, fmt.Sprintf("%s dense=%v %s", tc.wc.Strategy, tc.dense, strat), res, liveParams(ws))
		}
	}
}

// TestWorldStepOverlapStructure: with the adaptive strategy over multiple
// layers, AllReduce tasks must actually appear inside earlier layers'
// backward plans, interleaved on the inter stream — not only in the tail.
func TestWorldStepOverlapStructure(t *testing.T) {
	const layers = 3
	x := tensor.RandN(xrand.New(81), 1, 96, 32)
	dy := tensor.RandN(xrand.New(82), 1, 96, 32)
	ws := stepStack(t, layers, 4, 2, false)
	res, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.01, Strategy: gradsync.StrategyFSMoE})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.HiddenBytes <= 0 {
		t.Fatalf("adaptive step hid nothing: %+v", res.Report)
	}
	arTasks := 0
	for _, tr := range res.Traces {
		for _, iv := range tr.Intervals {
			if iv.Task.Kind == gradsync.KindAllReduce {
				if iv.Task.Stream != "inter" {
					t.Fatalf("AllReduce slice on stream %q, want inter", iv.Task.Stream)
				}
				arTasks++
			}
		}
	}
	if arTasks == 0 {
		t.Fatal("no AllReduce tasks embedded in any backward plan")
	}
	if arTasks != res.Report.Slices {
		t.Fatalf("%d AllReduce tasks in traces, report says %d", arTasks, res.Report.Slices)
	}
	// The no-overlap strategy on an identical stack must expose everything.
	ws2 := stepStack(t, layers, 4, 2, false)
	res2, err := StepWorlds(ws2, x, dy, StepConfig{LR: 0.01, Strategy: gradsync.StrategyNoOverlap})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.HiddenBytes != 0 || res2.Report.TailBytes != res2.Report.TotalBytes {
		t.Fatalf("no-overlap report: %+v", res2.Report)
	}
}

// TestSyncWorlds: the blocking entry point reconstructs the accumulated
// layer gradients bit-exactly.
func TestSyncWorlds(t *testing.T) {
	x := tensor.RandN(xrand.New(91), 1, 96, 32)
	dy := tensor.RandN(xrand.New(92), 1, 96, 32)
	ws := stepStack(t, 1, 4, 2, false)
	w := ws[0]
	w.layer.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Backward(cache, dy); err != nil {
		t.Fatal(err)
	}
	rep, err := SyncWorlds(ws, StepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, p := range w.layer.Params() {
		want = append(want, p.G.Data()...)
	}
	if g := rep.LayerGrads[0]; !slices.Equal(g, want) {
		t.Fatalf("synced gradient %v, accumulated %v", g, want)
	}
	if rep.Report.TailBytes != rep.Report.TotalBytes {
		t.Fatalf("standalone sync must be all tail: %+v", rep.Report)
	}
}

// TestStepScopesExecutorAndTrainMode: Step's sequential-executor override
// is scoped to the step (the caller's mode is restored), and a train-mode
// step equals its Sequential + SyncNoOverlap twin's.
func TestStepScopesExecutorAndTrainMode(t *testing.T) {
	x := tensor.RandN(xrand.New(97), 1, 96, 32)
	dy := tensor.RandN(xrand.New(98), 1, 96, 32)
	ws := stepStack(t, 2, 4, 2, false)
	ws[0].SetSequential(false)
	ws[1].SetSequential(true)
	res, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.01, Sequential: true, Train: true})
	if err != nil {
		t.Fatal(err)
	}
	if ws[0].seq || !ws[1].seq {
		t.Fatal("step must restore each world's executor mode")
	}
	twin, err := StepWorlds(stepStack(t, 2, 4, 2, false), x, dy,
		StepConfig{LR: 0.01, Sequential: true, Train: true, Strategy: gradsync.StrategyNoOverlap})
	if err != nil {
		t.Fatal(err)
	}
	sameAsTwin(t, "train-mode step", res, twin)
}

// TestStepWorldsRejects covers step validation.
func TestStepWorldsRejects(t *testing.T) {
	x := tensor.RandN(xrand.New(95), 1, 96, 32)
	dy := tensor.RandN(xrand.New(96), 1, 96, 32)
	if _, err := StepWorlds(nil, x, dy, StepConfig{}); err == nil {
		t.Fatal("empty stack must fail")
	}
	mixed := append(stepStack(t, 1, 4, 1, false), stepStack(t, 1, 2, 1, false)...)
	if _, err := StepWorlds(mixed, x, dy, StepConfig{}); err == nil {
		t.Fatal("mismatched rank counts must fail")
	}
	ws := stepStack(t, 1, 4, 1, false)
	if _, err := StepWorlds(ws, x, dy, StepConfig{Strategy: "warp-drive"}); err == nil {
		t.Fatal("unknown strategy must fail")
	}
}

// TestStepRejectsSharedParams: a stack in which two entries share a layer's
// parameters — the same World twice, or two Worlds over one MOELayer —
// cannot give each parameter one view of the stack's buffers. StepWorlds
// and SyncWorlds refuse it with an error, before anything is moved.
func TestStepRejectsSharedParams(t *testing.T) {
	x := tensor.RandN(xrand.New(93), 1, 96, 32)
	dy := tensor.RandN(xrand.New(94), 1, 96, 32)
	twice := stepStack(t, 1, 4, 1, false)
	l := worldLayer(t, "gshard", TutelOrder{}, false, false)
	var oneLayer []*World
	for range 2 {
		w, err := NewWorld(l, WorldConfig{Ranks: 4, PipelineDegree: 1, Strategy: StrategyEP})
		if err != nil {
			t.Fatal(err)
		}
		oneLayer = append(oneLayer, w)
	}
	for _, tc := range []struct {
		name   string
		worlds []*World
	}{
		{"the same World twice", []*World{twice[0], twice[0]}},
		{"two Worlds over one MOELayer", oneLayer},
	} {
		w0 := liveParams(tc.worlds[:1])
		p0 := tc.worlds[0].layer.Params()[0].W
		if _, err := StepWorlds(tc.worlds, x, dy, StepConfig{LR: 0.05}); err == nil {
			t.Fatalf("%s: StepWorlds must fail", tc.name)
		}
		if _, err := SyncWorlds(tc.worlds, StepConfig{}); err == nil {
			t.Fatalf("%s: SyncWorlds must fail", tc.name)
		}
		if tc.worlds[0].layer.stack != nil || tc.worlds[0].layer.Params()[0].W != p0 || !slices.Equal(liveParams(tc.worlds[:1]), w0) {
			t.Fatalf("%s: a refused stack was touched", tc.name)
		}
	}
}
