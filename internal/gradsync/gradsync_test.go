package gradsync

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// testSpecs builds L layers of n elements with simulator-consistent byte
// accounting on Testbed A's models.
func testSpecs(l, n int) (Config, []LayerSpec) {
	cfg := Config{Models: core.ModelsFromCluster(topology.TestbedA()), ElemBytes: 4, Slices: 3}
	specs := make([]LayerSpec, l)
	for i := range specs {
		specs[i] = LayerSpec{
			Elems: n,
			V: core.Volumes{
				NA2A: 1e6, NAG: 1e5, NRS: 1e5, ExpMACs: 1e8, ExpGEMMs: 2,
				DenseFwd: 0.1, DenseBwd: 0.3,
				GradBytes: float64(n) * 4,
			},
		}
	}
	return cfg, specs
}

// randGrads builds a layer's gradient buffer of n elements and a copy of
// it, the values it starts from.
func randGrads(seed uint64, n int) (buf, truth []float64) {
	rng := xrand.New(seed)
	truth = make([]float64, n)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	return slices.Clone(truth), truth
}

// driveBackward simulates the plan-builder protocol for one full backward
// pass in reverse layer order, executing each layer's plan for real.
func driveBackward(t *testing.T, s *Syncer, layers int, grads [][]float64, points int) {
	t.Helper()
	for i := layers - 1; i >= 0; i-- {
		s.StartLayer(i)
		p := runtime.NewPlan()
		s.BeginLayer(points)
		for pt := 0; pt < points; pt++ {
			s.EmitAt(p, "inter", pt)
		}
		if p.Len() > 0 {
			if _, err := p.Execute(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Collect(i, grads[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncerStrategiesBitIdentical: all three strategies must leave every
// layer's gradients the identical bytes — only scheduling differs.
func TestSyncerStrategiesBitIdentical(t *testing.T) {
	const layers, n = 3, 501
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n)
		cfg.Strategy = strat
		cfg.ChunkBytes = 256 * 4 // small fixed chunks so Lina actually slices
		s, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		grads := make([][]float64, layers)
		truths := make([][]float64, layers)
		for i := range grads {
			grads[i], truths[i] = randGrads(uint64(50+i), n)
		}
		driveBackward(t, s, layers, grads, 3)
		rep, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for i := range grads {
			for k := 0; k < n; k++ {
				if grads[i][k] != truths[i][k] {
					t.Fatalf("%s: layer %d elem %d = %v, want %v", strat, i, k, grads[i][k], truths[i][k])
				}
			}
		}
		wantTotal := float64(layers*n) * cfg.ElemBytes
		if rep.HiddenBytes+rep.TailBytes != wantTotal {
			t.Fatalf("%s: hidden %v + tail %v != total %v", strat, rep.HiddenBytes, rep.TailBytes, wantTotal)
		}
		switch strat {
		case StrategyNoOverlap:
			if rep.HiddenBytes != 0 || rep.Slices != 0 {
				t.Fatalf("no-overlap hid %v bytes in %d slices", rep.HiddenBytes, rep.Slices)
			}
		case StrategyFixedChunk:
			// Layers 1 and 2 are pending when layers 1 and 0 build their
			// plans; Lina launches them all, so only layer 0's own
			// gradients remain exposed.
			if rep.HiddenBytes != float64(2*n)*cfg.ElemBytes {
				t.Fatalf("lina hid %v bytes, want %v", rep.HiddenBytes, float64(2*n)*cfg.ElemBytes)
			}
		case StrategyFSMoE:
			if rep.Gar == nil {
				t.Fatal("fsmoe strategy must carry a GarPlan")
			}
		}
	}
}

// TestSyncerFSMoEHidesBytes: with Testbed A models and comfortable
// windows, the adaptive plan must hide a positive share inside the plans.
func TestSyncerFSMoEHidesBytes(t *testing.T) {
	const layers, n = 4, 2048
	cfg, specs := testSpecs(layers, n)
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][]float64, layers)
	for i := range grads {
		grads[i], _ = randGrads(uint64(90+i), n)
	}
	driveBackward(t, s, layers, grads, 2)
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.HiddenBytes <= 0 {
		t.Fatalf("adaptive plan hid nothing (report %+v, gar %+v)", rep, rep.Gar)
	}
}

// TestSyncerValidation covers construction and protocol errors.
func TestSyncerValidation(t *testing.T) {
	cfg, specs := testSpecs(2, 64)
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("no layers must fail")
	}
	bad := append([]LayerSpec(nil), specs...)
	bad[0].Elems = 0
	if _, err := New(cfg, bad); err == nil {
		t.Fatal("a layer with no gradient elements must fail")
	}
	cfg.Strategy = "warp-drive"
	if _, err := New(cfg, specs); err == nil {
		t.Fatal("unknown strategy must fail")
	}
	cfg.Strategy = StrategyNoOverlap
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("Finish before Collect must fail")
	}
	g0, _ := randGrads(1, 64)
	if err := s.Collect(5, g0); err == nil {
		t.Fatal("unknown layer must fail")
	}
	if err := s.Collect(0, []float64{1, 2}); err == nil {
		t.Fatal("wrong element count must fail")
	}
	if err := s.Collect(0, g0); err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(0, g0); err == nil {
		t.Fatal("double collect must fail")
	}
	g1, _ := randGrads(2, 64)
	if err := s.Collect(1, g1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("double Finish must fail")
	}
}

// stepOnce is an Update that steps each element g to 1 − lr·g and counts
// how often each element came by.
func stepOnce(grads, seen [][]float64) Update {
	const lr = 0.25
	return func(layer, lo, hi int) {
		for k := lo; k < hi; k++ {
			seen[layer][k]++
			grads[layer][k] = 1 - lr*grads[layer][k]
		}
	}
}

// checkSteppedOnce fails unless every element of every layer came by the
// Update exactly once and holds 1 − lr·g of its collected value g.
func checkSteppedOnce(t *testing.T, label string, grads, truth, seen [][]float64) {
	t.Helper()
	const lr = 0.25
	for i := range grads {
		for k, g := range truth[i] {
			if seen[i][k] != 1 {
				t.Fatalf("%s: layer %d element %d updated %v times", label, i, k, seen[i][k])
			}
			if want := 1 - lr*g; grads[i][k] != want {
				t.Fatalf("%s: layer %d element %d = %v, want %v", label, i, k, grads[i][k], want)
			}
		}
	}
}

// TestSyncerAbortedPlanReclaimsSlices: a plan that absorbed AllReduce
// slices via EmitAt and then aborted mid-run (a permanent fault cancels
// the inter stream, skipping the remaining slice tasks) must not lose
// them — the skipped slices return to the pending pool and Finish updates
// every element, once, so the stepped values stay exact.
func TestSyncerAbortedPlanReclaimsSlices(t *testing.T) {
	const layers, n = 2, 800
	cfg, specs := testSpecs(layers, n)
	cfg.Strategy = StrategyFSMoE
	plan, err := Solve(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][]float64, layers)
	truth := make([][]float64, layers)
	seen := make([][]float64, layers)
	for i := range grads {
		grads[i], truth[i] = randGrads(uint64(900+i), n)
		seen[i] = make([]float64, n)
	}
	s := plan.NewSyncer(stepOnce(grads, seen))

	// Layer 1's backward plan: nothing pending yet, so its emits are empty.
	s.StartLayer(1)
	s.BeginLayer(1)
	p1 := runtime.NewPlan()
	s.EmitAt(p1, "inter", 0)
	if err := s.Collect(1, grads[1]); err != nil {
		t.Fatal(err)
	}

	// Layer 0's plan absorbs layer 1's pending slices across three emit
	// points, but a permanent fault lands between points 0 and 1: the
	// slices already run stay stepped, the rest are skipped when the plan
	// cancels — and must be reclaimed rather than lost.
	s.StartLayer(0)
	s.BeginLayer(3)
	p0 := runtime.NewPlan()
	s.EmitAt(p0, "inter", 0)
	p0.Add("poison", "Experts", "inter", 1, func() error {
		return fault.NewPermanent(0, "poison", "injected rank-down")
	})
	s.EmitAt(p0, "inter", 1)
	s.EmitAt(p0, "inter", 2)
	emitted := s.rep.Slices
	if emitted == 0 {
		t.Fatal("layer 0's plan absorbed no slices; the scenario never formed")
	}
	if _, err := p0.Execute(); err == nil {
		t.Fatal("poisoned plan must fail")
	}
	if err := s.Collect(0, grads[0]); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TailSlices == 0 {
		t.Fatal("aborted plan's skipped slices never reached the tail")
	}
	checkSteppedOnce(t, "aborted plan", grads, truth, seen)
}

// TestSyncerUpdateOncePerElement: a Syncer cut with an Update leaves every
// layer's buffer with update(gradient) — under every strategy's slicing,
// whether a slice ran inside a plan or in the tail, at tail pool widths 1,
// 2 and 4, and with task names served from the plan's cache on later passes
// — having handed the Update each element of each layer exactly once.
func TestSyncerUpdateOncePerElement(t *testing.T) {
	defer tensor.SetWorkers(0)
	const layers, n = 3, 501
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n)
		cfg.Strategy = strat
		cfg.ChunkBytes = 256 * 4
		plan, err := Solve(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		for pass, workers := range []int{1, 2, 4} {
			tensor.SetWorkers(workers)
			grads := make([][]float64, layers)
			truth := make([][]float64, layers)
			seen := make([][]float64, layers)
			for i := range grads {
				grads[i], truth[i] = randGrads(uint64(900+i), n)
				seen[i] = make([]float64, n)
			}
			s := plan.NewSyncer(stepOnce(grads, seen))
			driveBackward(t, s, layers, grads, 3)
			if _, err := s.Finish(); err != nil {
				t.Fatal(err)
			}
			checkSteppedOnce(t, fmt.Sprintf("%s pass %d", strat, pass), grads, truth, seen)
		}
	}
}

// TestFinishParallelMatchesSerial: the tail split across 2 or 4 pool
// workers leaves the weights the step's Update (AddScaledRow by −lr into a
// weight buffer of its own) leaves on one worker,
// bit for bit, and the same Report but for its wall time — under every
// strategy, fixed-chunk tail slices cut off the tile edges included.
func TestFinishParallelMatchesSerial(t *testing.T) {
	defer tensor.SetWorkers(0)
	const layers, n, lr = 3, 5*comm.RingTile + 123, 0.25
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n)
		cfg.Strategy = strat
		cfg.ChunkBytes = float64(2*comm.RingTile+77) * cfg.ElemBytes
		plan, err := Solve(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]float64
		var wantRep Report
		for _, workers := range []int{1, 2, 4} {
			tensor.SetWorkers(workers)
			grads := make([][]float64, layers)
			weights := make([][]float64, layers)
			for i := range grads {
				grads[i], _ = randGrads(uint64(70+i), n)
				weights[i], _ = randGrads(uint64(80+i), n)
			}
			s := plan.NewSyncer(func(layer, lo, hi int) {
				tensor.AddScaledRow(weights[layer][lo:hi], grads[layer][lo:hi], -lr)
			})
			driveBackward(t, s, layers, grads, 3)
			rep, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if rep.TailBytes < float64(3*comm.RingTile)*cfg.ElemBytes {
				t.Fatalf("%s: tail of %v bytes is too short to fan out", strat, rep.TailBytes)
			}
			rep.TailMS = 0
			if workers == 1 {
				want, wantRep = weights, rep
				continue
			}
			if !reflect.DeepEqual(rep, wantRep) {
				t.Fatalf("%s at %d workers: report %+v, one worker %+v", strat, workers, rep, wantRep)
			}
			for i := range weights {
				for k, v := range weights[i] {
					if math.Float64bits(v) != math.Float64bits(want[i][k]) {
						t.Fatalf("%s at %d workers: layer %d elem %d = %v, one worker %v", strat, workers, i, k, v, want[i][k])
					}
				}
			}
		}
	}
}

// TestGatherNegativeZero pins the one bit the one-copy update and the ring
// it replaced can disagree on. An element's gradient g has one contributor;
// a ring over R ranks would hold g on that rank and +0 on every other. The
// ring sums g with those zeros, and x + 0 = x for every x but −0:
// −0 + (+0) = +0. So where g = −0 the ring hands SGD a +0, and from a −0
// weight −0 + (−lr)·(+0) = −0; the update takes the −0 itself, and
// −0 + (−lr)·(−0) = −0 + (+0) = +0. Without an Update the gradient stays −0
// where the ring left +0. Every other bit is the ring's. The update is the
// step's: AddScaledRow by −lr into a weight buffer of its own, which leaves
// the gradient as collected.
func TestGatherNegativeZero(t *testing.T) {
	const ranks, n, lr = 4, 64, 0.5
	negZero := math.Copysign(0, -1)
	isNegZero := func(v float64) bool { return math.Float64bits(v) == math.Float64bits(negZero) }
	for _, step := range []bool{true, false} {
		grads, truth := randGrads(7, n)
		weights, _ := randGrads(8, n)
		for k := 0; k < n; k += 3 {
			truth[k], grads[k] = negZero, negZero
		}
		for k := 0; k < n; k += 2 {
			weights[k] = negZero
		}
		ring := make([][]float64, ranks)
		for r := range ring {
			ring[r] = make([]float64, n)
		}
		for k, g := range grads {
			ring[k%ranks][k] = g
		}
		if _, err := comm.RingAllReduceChunk(ring, 0, comm.RowRange{Lo: 0, Hi: n}); err != nil {
			t.Fatal(err)
		}
		// got is what the update leaves, want what the ring's sum gives.
		got, want := grads, ring[0]
		var update Update
		if step {
			ringW := slices.Clone(weights)
			tensor.AddScaledRow(ringW, ring[0], -lr)
			update = func(_, lo, hi int) { tensor.AddScaledRow(weights[lo:hi], grads[lo:hi], -lr) }
			got, want = weights, ringW
		}
		cfg, specs := testSpecs(1, n)
		cfg.Strategy = StrategyNoOverlap
		plan, err := Solve(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		s := plan.NewSyncer(update)
		if err := s.Collect(0, grads); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
		moved := 0
		for k := 0; k < n; k++ {
			switch {
			case step && isNegZero(truth[k]) && isNegZero(want[k]):
				// Only here: the ring's step leaves −0, the update gives +0.
				moved++
				if math.Float64bits(got[k]) != 0 {
					t.Fatalf("step, element %d: update %v (%#x), ring %v; want +0 and −0", k, got[k], math.Float64bits(got[k]), want[k])
				}
			case !step && isNegZero(truth[k]):
				moved++
				if !isNegZero(got[k]) || math.Float64bits(want[k]) != 0 {
					t.Fatalf("sync, element %d: buffer %v (%#x), ring %v (%#x); want −0 and +0", k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
				}
			case math.Float64bits(got[k]) != math.Float64bits(want[k]):
				t.Fatalf("step %v, element %d: update %v, ring %v", step, k, got[k], want[k])
			}
			if step && math.Float64bits(grads[k]) != math.Float64bits(truth[k]) {
				t.Fatalf("step, element %d: the update rewrote the gradient %v to %v", k, truth[k], grads[k])
			}
		}
		if moved == 0 {
			t.Fatalf("step %v: no −0 gradient met the case under test", step)
		}
	}
}

// BenchmarkFinishTail times one exposed tail of the repository benchmark's
// ep_params size (2.63 M elements) through Finish, the step's update —
// tensor.AddScaledRow by −lr into a weight buffer of its own, the gradient
// only read — split over the default tensor pool.
func BenchmarkFinishTail(b *testing.B) {
	const n = 2_630_000
	cfg, specs := testSpecs(1, n)
	cfg.Strategy = StrategyNoOverlap
	plan, err := Solve(cfg, specs)
	if err != nil {
		b.Fatal(err)
	}
	grads, _ := randGrads(1, n)
	weights, _ := randGrads(2, n)
	update := func(_, lo, hi int) { tensor.AddScaledRow(weights[lo:hi], grads[lo:hi], -1e-9) }
	for i := 0; i < b.N; i++ {
		s := plan.NewSyncer(update)
		if err := s.Collect(0, grads); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
