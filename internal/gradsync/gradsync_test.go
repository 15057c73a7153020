package gradsync

import (
	"math"
	"reflect"
	goruntime "runtime"
	"strings"
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
func testSpecs(l, n, dense int) (Config, []LayerSpec) {
	cfg := Config{Models: core.ModelsFromCluster(topology.TestbedA()), ElemBytes: 4, Slices: 3}
	specs := make([]LayerSpec, l)
	for i := range specs {
		specs[i] = LayerSpec{
			Elems:      n,
			DenseElems: dense,
			V: core.Volumes{
				NA2A: 1e6, NAG: 1e5, NRS: 1e5, ExpMACs: 1e8, ExpGEMMs: 2,
				DenseFwd: 0.1, DenseBwd: 0.3,
				GradBytes: float64(n) * 4,
			},
		}
	}
	return cfg, specs
}

// disjointGrads builds per-rank partials where every element has exactly
// one non-zero owner, so the reduced value is exact and known.
func disjointGrads(seed uint64, ranks, n int) (bufs [][]float64, truth []float64) {
	rng := xrand.New(seed)
	truth = make([]float64, n)
	bufs = make([][]float64, ranks)
	for r := range bufs {
		bufs[r] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		truth[i] = rng.NormFloat64()
		bufs[i%ranks][i] = truth[i]
	}
	return bufs, truth
}

// driveBackward simulates the plan-builder protocol for one full backward
// pass in reverse layer order, executing each layer's plan for real.
func driveBackward(t *testing.T, s *Syncer, layers int, grads [][][]float64, points int) {
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

// TestSyncerStrategiesBitIdentical: all three strategies must reduce every
// layer's gradients to the identical bytes — only scheduling differs.
func TestSyncerStrategiesBitIdentical(t *testing.T) {
	const layers, ranks, n = 3, 4, 501
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n, 40)
		cfg.Strategy = strat
		cfg.ChunkBytes = 256 * 4 // small fixed chunks so Lina actually slices
		s, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		grads := make([][][]float64, layers)
		truths := make([][]float64, layers)
		for i := range grads {
			grads[i], truths[i] = disjointGrads(uint64(50+i), ranks, n)
		}
		driveBackward(t, s, layers, grads, 3)
		rep, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for i := range grads {
			for r := 0; r < ranks; r++ {
				for k := 0; k < n; k++ {
					if grads[i][r][k] != truths[i][k] {
						t.Fatalf("%s: layer %d rank %d elem %d = %v, want %v",
							strat, i, r, k, grads[i][r][k], truths[i][k])
					}
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
	const layers, ranks, n = 4, 2, 2048
	cfg, specs := testSpecs(layers, n, 100)
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][][]float64, layers)
	for i := range grads {
		grads[i], _ = disjointGrads(uint64(90+i), ranks, n)
	}
	driveBackward(t, s, layers, grads, 2)
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.HiddenBytes <= 0 {
		t.Fatalf("adaptive plan hid nothing (report %+v, gar %+v)", rep, rep.Gar)
	}
	if rep.Stats.IntraVolume+rep.Stats.InterVolume <= 0 {
		t.Fatal("no ring traffic recorded")
	}
}

// TestSyncerValidation covers construction and protocol errors.
func TestSyncerValidation(t *testing.T) {
	cfg, specs := testSpecs(2, 64, 8)
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("no layers must fail")
	}
	bad := append([]LayerSpec(nil), specs...)
	bad[0].DenseElems = 1000
	if _, err := New(cfg, bad); err == nil {
		t.Fatal("dense prefix past the layer must fail")
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
	g0, _ := disjointGrads(1, 2, 64)
	if err := s.Collect(5, g0); err == nil {
		t.Fatal("unknown layer must fail")
	}
	if err := s.Collect(0, [][]float64{{1, 2}}); err == nil {
		t.Fatal("wrong element count must fail")
	}
	if err := s.Collect(0, g0); err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(0, g0); err == nil {
		t.Fatal("double collect must fail")
	}
	g1, _ := disjointGrads(2, 2, 64)
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

// TestSyncerAbortedPlanReclaimsSlices: a plan that absorbed AllReduce
// slices via EmitAt and then aborted mid-run (a permanent fault cancels
// the inter stream, skipping the remaining slice tasks) must not lose
// them — the skipped slices return to the pending pool and Finish reduces
// every byte, so the synchronized gradients stay exact.
func TestSyncerAbortedPlanReclaimsSlices(t *testing.T) {
	const layers, ranks, n = 2, 4, 800
	cfg, specs := testSpecs(layers, n, 40)
	cfg.Strategy = StrategyFSMoE
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][][]float64, layers)
	truth := make([][]float64, layers)
	for i := range grads {
		grads[i], truth[i] = disjointGrads(uint64(900+i), ranks, n)
	}

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
	// slices already run stay reduced, the rest are skipped when the plan
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
	for i := range grads {
		for r := 0; r < ranks; r++ {
			for k := 0; k < n; k++ {
				if grads[i][r][k] != truth[i][k] {
					t.Fatalf("layer %d rank %d elem %d = %v, want %v (slices lost on abort)",
						i, r, k, grads[i][r][k], truth[i][k])
				}
			}
		}
	}
}

// TestSyncerUpdateOncePerElement: a Syncer cut with an Update leaves every
// rank of every layer with update(reduced gradient) — under every strategy,
// whether a slice ran inside a plan or in the tail, and with task names
// served from the plan's cache on the second pass — having handed the
// Update each element of each layer exactly once.
func TestSyncerUpdateOncePerElement(t *testing.T) {
	const layers, ranks, n, lr = 3, 4, 501, 0.25
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n, 40)
		cfg.Strategy = strat
		cfg.ChunkBytes = 256 * 4
		plan, err := Solve(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			grads := make([][][]float64, layers)
			truth := make([][]float64, layers)
			for i := range grads {
				grads[i], truth[i] = disjointGrads(uint64(900+i), ranks, n)
			}
			seen := make([][]int, layers)
			for i := range seen {
				seen[i] = make([]int, n)
			}
			s := plan.NewSyncer(func(layer, rank, lo, hi int) {
				for k := lo; k < hi; k++ {
					seen[layer][k]++
					grads[layer][rank][k] = 1 - lr*grads[layer][rank][k]
				}
			})
			driveBackward(t, s, layers, grads, 3)
			if _, err := s.Finish(); err != nil {
				t.Fatal(err)
			}
			for i := range grads {
				for k, c := range seen[i] {
					if c != 1 {
						t.Fatalf("%s pass %d: layer %d element %d updated %d times", strat, pass, i, k, c)
					}
				}
				for r := range grads[i] {
					for k, g := range truth[i] {
						if want := 1 - lr*g; grads[i][r][k] != want {
							t.Fatalf("%s pass %d: layer %d rank %d element %d = %v, want %v", strat, pass, i, r, k, grads[i][r][k], want)
						}
					}
				}
			}
		}
	}
}

// randGrads builds per-rank partials that all contribute to every element,
// so the ring's summation order shows in the bits.
func randGrads(seed uint64, ranks, n int) [][]float64 {
	rng := xrand.New(seed)
	bufs := make([][]float64, ranks)
	for r := range bufs {
		bufs[r] = make([]float64, n)
		for k := range bufs[r] {
			bufs[r][k] = rng.NormFloat64()
		}
	}
	return bufs
}

// TestFinishParallelMatchesSerial: the tail split across 2 or 4 pool
// workers leaves the buffers a syncer with an Update leaves on one worker,
// bit for bit, and the same Report but for its wall time — under every
// strategy, fixed-chunk tail slices cut off the ring's tile edges included.
func TestFinishParallelMatchesSerial(t *testing.T) {
	defer tensor.SetWorkers(0)
	const layers, ranks, n, lr = 3, 4, 5*comm.RingTile + 123, 0.25
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n, 40)
		cfg.Strategy = strat
		cfg.ChunkBytes = float64(2*comm.RingTile+77) * cfg.ElemBytes
		plan, err := Solve(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		var want [][][]float64
		var wantRep Report
		for _, workers := range []int{1, 2, 4} {
			tensor.SetWorkers(workers)
			grads := make([][][]float64, layers)
			weights := make([][]float64, layers)
			for i := range grads {
				grads[i] = randGrads(uint64(70+i), ranks, n)
				weights[i] = randGrads(uint64(80+i), 1, n)[0]
			}
			s := plan.NewSyncer(func(layer, rank, lo, hi int) {
				for k := lo; k < hi; k++ {
					grads[layer][rank][k] = weights[layer][k] - lr*grads[layer][rank][k]
				}
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
				want, wantRep = grads, rep
				continue
			}
			if !reflect.DeepEqual(rep, wantRep) {
				t.Fatalf("%s at %d workers: report %+v, one worker %+v", strat, workers, rep, wantRep)
			}
			for i := range grads {
				for r := range grads[i] {
					for k, v := range grads[i][r] {
						if math.Float64bits(v) != math.Float64bits(want[i][r][k]) {
							t.Fatalf("%s at %d workers: layer %d rank %d elem %d = %v, one worker %v", strat, workers, i, r, k, v, want[i][r][k])
						}
					}
				}
			}
		}
	}
}

// TestFinishRaggedLayerJoinsEveryPiece: a layer whose buffers disagree in
// length fails its ring pieces, and Finish returns that error only once
// every piece has run — the other layers end fully reduced — with no
// goroutine left behind.
func TestFinishRaggedLayerJoinsEveryPiece(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(4)
	tensor.ParallelRange(8, func(lo, hi int) {}) // start the pool's workers before counting
	const layers, ranks, n = 3, 4, 4 * comm.RingTile
	cfg, specs := testSpecs(layers, n, 40)
	cfg.Strategy = StrategyNoOverlap
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][][]float64, layers)
	truth := make([][]float64, layers)
	for i := range grads {
		grads[i], truth[i] = disjointGrads(uint64(300+i), ranks, n)
		if err := s.Collect(i, grads[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.grads[1][2] = s.grads[1][2][:n-1]
	before := goruntime.NumGoroutine()
	if _, err := s.Finish(); err == nil || !strings.Contains(err.Error(), "rank 2 has") {
		t.Fatalf("ragged layer: err = %v", err)
	}
	for _, i := range []int{0, 2} {
		for r := range grads[i] {
			for k, v := range grads[i][r] {
				if v != truth[i][k] {
					t.Fatalf("layer %d rank %d elem %d = %v, want %v: a piece was cut short", i, r, k, v, truth[i][k])
				}
			}
		}
	}
	if after := goruntime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before Finish, %d after", before, after)
	}
}
