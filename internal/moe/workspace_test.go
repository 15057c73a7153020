package moe

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/gradsync"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// These tests run, like the rest of the package, with workspace poisoning
// on (main_test.go): every token-path buffer a pass takes comes back full
// of NaN, so anything that still relied on fresh zeroed memory — or that
// read a stale row of the previous step — shows up as diverging parameters.

// strategyStack builds a stack of identically seeded layers under one
// strategy at R=4, over the gate strategyLayer pairs with it; every layer
// pads (T % 4 ≠ 0).
func strategyStack(t *testing.T, layers int, cfg WorldConfig) []*World {
	t.Helper()
	return routingStack(t, layers, cfg, cfg.Strategy == StrategyDenseSlots)
}

// routingStack is strategyStack over dense or hard routing.
func routingStack(t *testing.T, layers int, cfg WorldConfig, dense bool) []*World {
	t.Helper()
	ws := make([]*World, layers)
	for i := range ws {
		w, err := NewWorld(routingLayer(t, dense, false), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// sameAsTwin fails unless got's output, input gradient and one parameter
// row are bit-identical to the twin's.
func sameAsTwin(t *testing.T, label string, got, want *StepResult) {
	t.Helper()
	if sameBits(got.Y.Data(), want.Y.Data()) != nil || sameBits(got.DX.Data(), want.DX.Data()) != nil {
		t.Fatalf("%s: output or input gradient diverges from the twin", label)
	}
	if len(want.RankParams) != 1 {
		t.Fatalf("%s: the twin has %d parameter rows, want one", label, len(want.RankParams))
	}
	sameRow(t, label, got, want.RankParams[0])
}

// sameRow fails unless res holds one parameter row, bit-identical to want.
func sameRow(t *testing.T, label string, res *StepResult, want []float64) {
	t.Helper()
	if len(res.RankParams) != 1 {
		t.Fatalf("%s: %d parameter rows, want one", label, len(res.RankParams))
	}
	got := res.RankParams[0]
	if len(got) != len(want) {
		t.Fatalf("%s: %d params, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if math.Float64bits(got[k]) != math.Float64bits(v) {
			t.Fatalf("%s: param %d = %v, want %v", label, k, got[k], v)
		}
	}
}

// liveParams is the stack's live parameters, Param.W flat in the
// RankParams layout: each layer in Params order (gate, then experts).
func liveParams(worlds []*World) []float64 {
	var out []float64
	for _, w := range worlds {
		for _, p := range w.layer.Params() {
			out = append(out, p.W.Data()...)
		}
	}
	return out
}

// TestWorkspaceReuseBitIdentical: three steps on three different batches
// with live pad rows, per strategy. The pipelined stack reuses one
// workspace per world from the second step on; its parameters, outputs and
// input gradients stay bit-identical to a twin that steps sequentially
// with the AllReduce exposed.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	const layers = 2
	cfgs := []WorldConfig{
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP},
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP},
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2},
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyDenseSlots},
	}
	for _, wc := range cfgs {
		ws := strategyStack(t, layers, wc)
		twin := strategyStack(t, layers, wc)
		var held []*workspace
		for s := 0; s < 3; s++ {
			x := tensor.RandN(xrand.New(uint64(400+2*s)), 1, 96, 32)
			dy := tensor.RandN(xrand.New(uint64(401+2*s)), 1, 96, 32)
			got, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.05, Slices: 3})
			if err != nil {
				t.Fatalf("%s step %d: %v", wc.Strategy, s, err)
			}
			want, err := StepWorlds(twin, x, dy, StepConfig{LR: 0.05, Sequential: true, Strategy: gradsync.StrategyNoOverlap})
			if err != nil {
				t.Fatalf("%s twin step %d: %v", wc.Strategy, s, err)
			}
			sameAsTwin(t, fmt.Sprintf("%s step %d", wc.Strategy, s), got, want)
			for i, w := range ws {
				if w.ws == nil || w.ws.shape.capacity%wc.Ranks == 0 {
					t.Fatalf("%s step %d layer %d: idle workspace %+v, want one with live pad rows", wc.Strategy, s, i, w.ws)
				}
				if s == 0 {
					held = append(held, w.ws)
				} else if w.ws != held[i] {
					t.Fatalf("%s step %d layer %d: a warm step cut a new workspace", wc.Strategy, s, i)
				}
			}
		}
	}
}

// TestWorkspaceOutstandingCache: a Forward while an earlier cache is still
// outstanding must not touch what that cache points at — neither the
// world's workspace nor the gate's routing scratch. For every gate the
// benchmark workloads run, Forward(x1), Forward(x2), then Backward on each
// cache equals two independent Forward→Backward passes, bit for bit, and
// each Backward hands its workspace back to the world and its routing
// scratch back to the gate.
func TestWorkspaceOutstandingCache(t *testing.T) {
	x1 := tensor.RandN(xrand.New(421), 1, 96, 32)
	x2 := tensor.RandN(xrand.New(422), 1, 96, 32)
	dy := tensor.RandN(xrand.New(423), 1, 96, 32)
	for _, tc := range []struct {
		gate string
		wc   WorldConfig
	}{
		{"gshard", WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP}},
		{"gshard", WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP}},
		{"xmoe", WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP}},
		{"sigmoid", WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2}},
		{"softmoe", WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyDenseSlots}},
	} {
		label := fmt.Sprintf("%s/%s", tc.gate, tc.wc.Strategy)
		layer := softmoeLayer(t, false, 3)
		if tc.gate != "softmoe" {
			layer = worldLayer(t, tc.gate, TutelOrder{}, false, false)
		}
		want1 := runWorld(t, layer, tc.wc, x1, dy, false)
		want2 := runWorld(t, layer, tc.wc, x2, dy, false)

		w, err := NewWorld(layer, tc.wc)
		if err != nil {
			t.Fatal(err)
		}
		y1, c1, err := w.Forward(x1, false)
		if err != nil {
			t.Fatal(err)
		}
		y2, c2, err := w.Forward(x2, false)
		if err != nil {
			t.Fatal(err)
		}
		if c1.ws == c2.ws {
			t.Fatalf("%s: two live caches share a workspace", label)
		}
		if c1.pr.rc == c2.pr.rc || c1.pr.plan == c2.pr.plan {
			t.Fatalf("%s: two live caches share the gate's routing scratch", label)
		}
		for i, c := range []*WorldCache{c1, c2} {
			layer.ZeroGrad()
			rc := c.pr.rc
			dx, err := w.Backward(c, dy)
			if err != nil {
				t.Fatal(err)
			}
			got := worldSnapshot{y: []*tensor.Tensor{y1, y2}[i], dx: dx, grads: snapGrads(layer)}
			compareSnapshots(t, fmt.Sprintf("%s cache %d", label, i+1), []worldSnapshot{want1, want2}[i], got)
			if c.ws != nil || w.ws == nil {
				t.Fatalf("%s cache %d: Backward did not hand its workspace back", label, i+1)
			}
			// The next Route takes the scratch this Backward handed back.
			if _, next, err := layer.cfg.Gate.Route(x1, false); err != nil || next != rc {
				t.Fatalf("%s cache %d: Backward did not hand its routing scratch back to the gate (err %v)", label, i+1, err)
			}
		}
	}
}

// TestWorkspaceLifetime: what re-cuts or drops the workspace. Another batch
// capacity and other pipeline degrees start a new one; Close drops it; a
// RecoverShrink 4→2 drops it, and the recovered stack then steps — on
// workspaces cut for two ranks — bit-identically to a fresh R=2 stack
// restored from the same checkpoint.
func TestWorkspaceLifetime(t *testing.T) {
	const layers = 2
	x := tensor.RandN(xrand.New(431), 1, 96, 32)
	dy := tensor.RandN(xrand.New(432), 1, 96, 32)
	xs := tensor.RandN(xrand.New(433), 1, 64, 32)
	dys := tensor.RandN(xrand.New(434), 1, 64, 32)
	mgr := tempManager(t)
	cfg := StepConfig{LR: 0.05, Checkpoint: mgr}
	ws := stepStack(t, layers, 4, 2, false)
	step := func(what string, x, dy *tensor.Tensor) *StepResult {
		t.Helper()
		res, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return res
	}

	step("first", x, dy)
	first := ws[0].ws
	step("same shape", x, dy)
	if ws[0].ws != first {
		t.Fatal("a second step at the same shape re-cut the workspace")
	}
	step("fewer tokens", xs, dys)
	if ws[0].ws == first {
		t.Fatal("another batch capacity kept the old workspace")
	}
	small := ws[0].ws
	for _, w := range ws {
		w.cfg.PipelineDegreeBwd = 1
	}
	step("other backward degree", xs, dys)
	if ws[0].ws == small {
		t.Fatal("another backward degree kept the old workspace")
	}

	// Lose rank 1 for good, recover onto two ranks.
	cfg.Checkpoint = nil
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 7, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	if res := step("degraded", x, dy); len(res.Degraded) == 0 {
		t.Fatal("rank-down never fired")
	}
	snap, err := mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverWorlds(ws, snap, RecoveryPolicy{Mode: RecoverShrink}); err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if w.ws != nil {
			t.Fatalf("layer %d: recovery kept a workspace cut for four ranks", i)
		}
	}
	ref := stepStack(t, layers, 2, 2, false)
	for _, w := range ref {
		w.cfg.PipelineDegreeBwd = 1
	}
	if err := RestoreWorlds(ref, snap); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		got := step(fmt.Sprintf("recovered step %d", s), x, dy)
		want, err := StepWorlds(ref, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameAsTwin(t, fmt.Sprintf("recovered step %d", s), got, want)
		if ws[0].ws == nil || ws[0].ws.shape.ranks != 2 {
			t.Fatalf("recovered step %d: idle workspace %+v, want one cut for two ranks", s, ws[0].ws)
		}
	}

	if err := ws[0].Close(); err != nil {
		t.Fatal(err)
	}
	if ws[0].ws != nil {
		t.Fatal("Close kept the workspace")
	}
	if _, _, err := ws[0].Forward(x, false); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("forward after close: %v", err)
	}
}

// TestWorkspaceSlotsPinned pins, per strategy, how many workspace slots and
// bytes one sparse forward and backward at R = 4 take (E = 8, M = 32,
// capacity 30 padded to Tpad = 32). The token side is no slot: the dispatch
// gathers x's rows and the combine-gradient exchange w·dy's through the
// plan's slot index, so neither the Order's expert-major plane nor the
// output gradient's is taken — two (E, Tpad, M) planes, 2 × 65 536 bytes,
// fewer than when each pass started from a buffer (EP 45 slots and 843 776
// bytes, ESP 117 and 2 318 336, Hybrid 69 and 1 400 832). Poisoning is on,
// so the pass also reads nothing of a slot it did not write.
func TestWorkspaceSlotsPinned(t *testing.T) {
	x := tensor.RandN(xrand.New(441), 1, 96, 32)
	dy := tensor.RandN(xrand.New(442), 1, 96, 32)
	for _, tc := range []struct {
		wc           WorldConfig
		slots, bytes int
	}{
		{WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP}, 43, 712704},
		{WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP}, 115, 2187264},
		{WorldConfig{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2}, 67, 1269760},
	} {
		layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		want := runSequentialLayer(t, layer, x, dy)
		w, err := NewWorld(layer, tc.wc)
		if err != nil {
			t.Fatal(err)
		}
		layer.ZeroGrad()
		y, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		dx, err := w.Backward(cache, dy)
		if err != nil {
			t.Fatal(err)
		}
		compareSnapshots(t, string(tc.wc.Strategy), want, worldSnapshot{y: y, dx: dx, grads: snapGrads(layer)})
		ws := w.ws
		if ws.shape.capacity != 30 || len(ws.slotIdx) != 8*32 {
			t.Fatalf("%s: capacity %d, slot index of %d, want 30 and 8×32", tc.wc.Strategy, ws.shape.capacity, len(ws.slotIdx))
		}
		bytes := 0
		for _, s := range ws.slots[:ws.next] {
			bytes += 8 * len(s.data)
		}
		if ws.next != tc.slots || bytes != tc.bytes {
			t.Fatalf("%s: a forward and backward took %d slots, %d bytes; want %d, %d", tc.wc.Strategy, ws.next, bytes, tc.slots, tc.bytes)
		}
	}
}

// countingOrder is TutelOrder counting the calls that lay a sparse plan out
// in an expert-major buffer.
type countingOrder struct {
	TutelOrder
	calls *int
}

func (o countingOrder) Scatter(dst, x *tensor.Tensor, plan *DispatchPlan) {
	*o.calls++
	o.TutelOrder.Scatter(dst, x, plan)
}

func (o countingOrder) GatherGrad(dOut, dy, expertOut *tensor.Tensor, plan *DispatchPlan) *PlanGrad {
	*o.calls++
	return o.TutelOrder.GatherGrad(dOut, dy, expertOut, plan)
}

// TestStepSparseSkipsOrderLayout: a training step over sparse plans at R = 4
// calls neither Order.Scatter nor Order.GatherGrad under any strategy — the
// collectives read the layout from the plan — while at R = 1, with no
// collective to carry it, every pass still does.
func TestStepSparseSkipsOrderLayout(t *testing.T) {
	x := tensor.RandN(xrand.New(443), 1, 96, 32)
	dy := tensor.RandN(xrand.New(444), 1, 96, 32)
	for _, wc := range []WorldConfig{
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyEP},
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyESP},
		{Ranks: 4, PipelineDegree: 2, Strategy: StrategyHybrid, GroupSize: 2},
		{Ranks: 1, PipelineDegree: 2, Strategy: StrategyEP},
	} {
		calls := 0
		ws := make([]*World, 2)
		for i := range ws {
			w, err := NewWorld(worldLayer(t, "gshard", countingOrder{calls: &calls}, false, false), wc)
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		for s := 0; s < 2; s++ {
			if _, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.05}); err != nil {
				t.Fatal(err)
			}
		}
		want := 0
		if wc.Ranks == 1 {
			want = 2 * 2 * 2 // two steps of two layers, a Scatter and a GatherGrad each
		}
		if calls != want {
			t.Fatalf("%s R=%d: %d Scatter and GatherGrad calls in two steps of two layers, want %d", wc.Strategy, wc.Ranks, calls, want)
		}
	}
}
