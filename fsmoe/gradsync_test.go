package fsmoe

import (
	"math"
	"testing"
)

// syncTestStack builds L identically seeded layers wrapped in R-rank
// Worlds with a fixed pipeline degree.
func syncTestStack(t *testing.T, layers, ranks int) []*World {
	t.Helper()
	ws := make([]*World, layers)
	for i := range ws {
		l, err := NewLayer(LayerConfig{
			M: 32, H: 48, Experts: 8, TopK: 2, CapacityFactor: 1.25, Seed: uint64(21 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(l, WorldConfig{Ranks: ranks, PipelineDegree: 2})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// sameParams fails unless got and want each hold one parameter row and the
// rows are bit-identical.
func sameParams(t *testing.T, label string, got, want *StepResult) {
	t.Helper()
	if len(got.RankParams) != 1 || len(want.RankParams) != 1 {
		t.Fatalf("%s: %d and %d parameter rows, want one each", label, len(got.RankParams), len(want.RankParams))
	}
	g, w := got.RankParams[0], want.RankParams[0]
	if len(g) != len(w) {
		t.Fatalf("%s: %d params, want %d", label, len(g), len(w))
	}
	for k := range w {
		if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
			t.Fatalf("%s: param %d = %v, want %v", label, k, g[k], w[k])
		}
	}
}

// TestStepStackStrategiesAgree: the public API steps a 2-layer stack to one
// row of parameters, bit-identical under all three strategies to a twin
// stepped sequentially with the AllReduce exposed, and the adaptive
// strategy actually hides bytes inside the backward plans.
func TestStepStackStrategiesAgree(t *testing.T) {
	x := RandTensor(101, 96, 32)
	dy := RandTensor(102, 96, 32)
	twin, err := StepStack(syncTestStack(t, 2, 4), x, dy, StepConfig{LR: 0.02, Sequential: true, Strategy: SyncNoOverlap})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []SyncStrategy{SyncFSMoE, SyncLinaFixed, SyncNoOverlap} {
		ws := syncTestStack(t, 2, 4)
		res, err := StepStack(ws, x, dy, StepConfig{LR: 0.02, Strategy: strat, ChunkBytes: 64 << 10})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		sameParams(t, string(strat), res, twin)
		if strat == SyncFSMoE && res.Report.HiddenBytes <= 0 {
			t.Fatalf("adaptive strategy hid nothing: %+v", res.Report)
		}
		if strat == SyncNoOverlap && res.Report.HiddenBytes != 0 {
			t.Fatalf("no-overlap strategy hid bytes: %+v", res.Report)
		}
	}
}

// TestSyncGradientsBlocking: the blocking entry reconstructs the layer's
// accumulated gradient bit-exactly.
func TestSyncGradientsBlocking(t *testing.T) {
	layer, err := NewLayer(LayerConfig{
		M: 32, H: 48, Experts: 8, TopK: 2, CapacityFactor: 1.25, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := RandTensor(111, 96, 32)
	dy := RandTensor(112, 96, 32)
	layer.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Backward(cache, dy); err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, p := range layer.Params() {
		want = append(want, p.G.Data()...)
	}
	rep, err := SyncGradients([]*World{w}, StepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Report.TailBytes != rep.Report.TotalBytes {
		t.Fatalf("blocking sync must be all tail: %+v", rep.Report)
	}
	g := rep.LayerGrads[0]
	if len(g) != len(want) {
		t.Fatalf("grad length %d, want %d", len(g), len(want))
	}
	for k := range want {
		if g[k] != want[k] {
			t.Fatalf("grad %d = %v, accumulated %v", k, g[k], want[k])
		}
	}
}
