package gradsync

import (
	"math"
	"reflect"
	goruntime "runtime"
	"slices"
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

// disjointGrads builds per-rank partials where every element has exactly
// one non-zero owner, i % ranks, so the reduced value is exact and known,
// and the owner spans that say so.
func disjointGrads(seed uint64, ranks, n int) (bufs [][]float64, truth []float64, owners []Span) {
	rng := xrand.New(seed)
	truth = make([]float64, n)
	bufs = make([][]float64, ranks)
	for r := range bufs {
		bufs[r] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		truth[i] = rng.NormFloat64()
		bufs[i%ranks][i] = truth[i]
		owners = append(owners, Span{Lo: i, Hi: i + 1, Rank: i % ranks})
	}
	return bufs, truth, owners
}

// driveBackward simulates the plan-builder protocol for one full backward
// pass in reverse layer order, executing each layer's plan for real.
func driveBackward(t *testing.T, s *Syncer, layers int, grads [][][]float64, owners [][]Span, points int) {
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
		if err := s.Collect(i, grads[i], owners[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncerStrategiesBitIdentical: all three strategies must reduce every
// layer's gradients to the identical bytes — only scheduling differs.
func TestSyncerStrategiesBitIdentical(t *testing.T) {
	const layers, ranks, n = 3, 4, 501
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n)
		cfg.Strategy = strat
		cfg.ChunkBytes = 256 * 4 // small fixed chunks so Lina actually slices
		s, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		grads := make([][][]float64, layers)
		truths := make([][]float64, layers)
		owners := make([][]Span, layers)
		for i := range grads {
			grads[i], truths[i], owners[i] = disjointGrads(uint64(50+i), ranks, n)
		}
		driveBackward(t, s, layers, grads, owners, 3)
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
	cfg, specs := testSpecs(layers, n)
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][][]float64, layers)
	owners := make([][]Span, layers)
	for i := range grads {
		grads[i], _, owners[i] = disjointGrads(uint64(90+i), ranks, n)
	}
	driveBackward(t, s, layers, grads, owners, 2)
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
	g0, _, o0 := disjointGrads(1, 2, 64)
	if err := s.Collect(5, g0, o0); err == nil {
		t.Fatal("unknown layer must fail")
	}
	if err := s.Collect(0, [][]float64{{1, 2}}, o0); err == nil {
		t.Fatal("wrong element count must fail")
	}
	if err := s.Collect(0, g0, o0); err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(0, g0, o0); err == nil {
		t.Fatal("double collect must fail")
	}
	g1, _, o1 := disjointGrads(2, 2, 64)
	if err := s.Collect(1, g1, o1); err != nil {
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
	cfg, specs := testSpecs(layers, n)
	cfg.Strategy = StrategyFSMoE
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][][]float64, layers)
	truth := make([][]float64, layers)
	owners := make([][]Span, layers)
	for i := range grads {
		grads[i], truth[i], owners[i] = disjointGrads(uint64(900+i), ranks, n)
	}

	// Layer 1's backward plan: nothing pending yet, so its emits are empty.
	s.StartLayer(1)
	s.BeginLayer(1)
	p1 := runtime.NewPlan()
	s.EmitAt(p1, "inter", 0)
	if err := s.Collect(1, grads[1], owners[1]); err != nil {
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
	if err := s.Collect(0, grads[0], owners[0]); err != nil {
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
// rank of every layer with update(owner's gradient) — under every strategy's
// slicing, whether a slice ran inside a plan or in the tail, at tail pool
// widths 1, 2 and 4, and with task names served from the plan's cache on
// later passes — having handed the Update each element of each layer exactly
// once, on the element's owner.
func TestSyncerUpdateOncePerElement(t *testing.T) {
	defer tensor.SetWorkers(0)
	const layers, ranks, n, lr = 3, 4, 501, 0.25
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
			grads := make([][][]float64, layers)
			truth := make([][]float64, layers)
			owners := make([][]Span, layers)
			for i := range grads {
				grads[i], truth[i], owners[i] = disjointGrads(uint64(900+i), ranks, n)
			}
			seen, on := make([][]int, layers), make([][]int, layers)
			for i := range seen {
				seen[i], on[i] = make([]int, n), make([]int, n)
			}
			s := plan.NewSyncer(func(layer, rank, lo, hi int) {
				for k := lo; k < hi; k++ {
					seen[layer][k]++
					on[layer][k] = rank
					grads[layer][rank][k] = 1 - lr*grads[layer][rank][k]
				}
			})
			driveBackward(t, s, layers, grads, owners, 3)
			if _, err := s.Finish(); err != nil {
				t.Fatal(err)
			}
			for i := range grads {
				for k, c := range seen[i] {
					if c != 1 || on[i][k] != k%ranks {
						t.Fatalf("%s pass %d: layer %d element %d updated %d times, on rank %d, owner %d", strat, pass, i, k, c, on[i][k], k%ranks)
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

// blockOwners gives rank r the r-th SplitFlat block of n elements.
func blockOwners(ranks, n int) []Span {
	var out []Span
	for r, rr := range comm.SplitFlat(n, ranks) {
		out = append(out, Span{Lo: rr.Lo, Hi: rr.Hi, Rank: r})
	}
	return out
}

// TestFinishParallelMatchesSerial: the tail split across 2 or 4 pool
// workers leaves the buffers a syncer with an Update leaves on one worker,
// bit for bit, and the same Report but for its wall time — under every
// strategy, fixed-chunk tail slices cut off the tile edges included. The
// Stats are the gather's: R − 1 messages for each piece a slice cuts from
// an owner span, and R − 1 times the elements in all, half the ring's
// 2(R − 1).
func TestFinishParallelMatchesSerial(t *testing.T) {
	defer tensor.SetWorkers(0)
	const layers, ranks, n, lr = 3, 4, 5*comm.RingTile + 123, 0.25
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n)
		cfg.Strategy = strat
		cfg.ChunkBytes = float64(2*comm.RingTile+77) * cfg.ElemBytes
		plan, err := Solve(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		owners := make([][]Span, layers)
		for i := range owners {
			owners[i] = blockOwners(ranks, n)
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
			driveBackward(t, s, layers, grads, owners, 3)
			rep, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if rep.TailBytes < float64(3*comm.RingTile)*cfg.ElemBytes {
				t.Fatalf("%s: tail of %v bytes is too short to fan out", strat, rep.TailBytes)
			}
			st := rep.Stats
			if vol := st.IntraVolume + st.InterVolume; vol != float64((ranks-1)*layers*n) {
				t.Fatalf("%s: gather moved %v elements, want (R−1)·%d = %d", strat, vol, layers*n, (ranks-1)*layers*n)
			}
			if msgs := st.IntraMessages + st.InterMessages; msgs%(ranks-1) != 0 || msgs < (ranks-1)*layers*ranks ||
				(strat == StrategyNoOverlap && msgs != (ranks-1)*layers*ranks) {
				t.Fatalf("%s: %d messages, want R−1 per piece of %d owner spans per layer", strat, msgs, ranks)
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
	cfg, specs := testSpecs(layers, n)
	cfg.Strategy = StrategyNoOverlap
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][][]float64, layers)
	truth := make([][]float64, layers)
	for i := range grads {
		var owners []Span
		grads[i], truth[i], owners = disjointGrads(uint64(300+i), ranks, n)
		if err := s.Collect(i, grads[i], owners); err != nil {
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

// TestCollectValidatesOwners: owner spans that are unsorted, leave a gap,
// overlap, are empty, stop short of or run past the layer, or name a rank
// that was not collected are refused, and the layer stays uncollected.
func TestCollectValidatesOwners(t *testing.T) {
	cfg, specs := testSpecs(1, 10)
	s, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	grads, _, _ := disjointGrads(3, 2, 10)
	for _, owners := range [][]Span{
		nil,
		{{0, 5, 0}},
		{{5, 10, 1}, {0, 5, 0}},
		{{0, 4, 0}, {5, 10, 1}},
		{{0, 6, 0}, {5, 10, 1}},
		{{0, 5, 0}, {5, 5, 1}, {5, 10, 1}},
		{{0, 5, 0}, {5, 11, 1}},
		{{0, 10, 0}, {10, 10, 1}},
		{{0, 5, 0}, {5, 10, 2}},
		{{0, 5, -1}, {5, 10, 1}},
	} {
		if err := s.Collect(0, grads, owners); err == nil {
			t.Fatalf("owners %v must be refused", owners)
		}
	}
	if err := s.Collect(0, grads, []Span{{0, 5, 1}, {5, 10, 0}}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherNegativeZero pins the one bit the owner gather and the ring it
// replaced can disagree on. An element's gradient g sits on its owner and
// +0 on every other rank. The ring sums g with those zeros, and x + 0 = x
// for every x but −0: −0 + (+0) = +0. So where g = −0 the ring hands SGD a
// +0, and from a −0 weight −0 − lr·(+0) = −0; the gather hands it the −0
// itself, and −0 − lr·(−0) = −0 + (+0) = +0. Without an Update the gathered
// gradient stays −0 where the ring left +0. Every other bit is the ring's.
func TestGatherNegativeZero(t *testing.T) {
	const ranks, n, lr = 4, 64, 0.5
	negZero := math.Copysign(0, -1)
	isNegZero := func(v float64) bool { return math.Float64bits(v) == math.Float64bits(negZero) }
	for _, step := range []bool{true, false} {
		grads, truth, owners := disjointGrads(7, ranks, n)
		weights := randGrads(8, 1, n)[0]
		for k := 0; k < n; k += 3 {
			truth[k], grads[k%ranks][k] = negZero, negZero
		}
		for k := 0; k < n; k += 2 {
			weights[k] = negZero
		}
		ring := make([][]float64, ranks)
		for r := range ring {
			ring[r] = slices.Clone(grads[r])
		}
		if _, err := comm.RingAllReduceChunk(ring, 0, comm.RowRange{Lo: 0, Hi: n}); err != nil {
			t.Fatal(err)
		}
		ringW := slices.Clone(weights)
		var update Update
		if step {
			tensor.StepRow(ringW, ring[0], lr)
			update = func(_, rank, lo, hi int) { tensor.StepRow(weights[lo:hi], grads[rank][lo:hi], lr) }
		}
		cfg, specs := testSpecs(1, n)
		cfg.Strategy = StrategyNoOverlap
		plan, err := Solve(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		s := plan.NewSyncer(update)
		if err := s.Collect(0, grads, owners); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
		moved := 0
		for k := 0; k < n; k++ {
			got, want := grads[0][k], ring[0][k]
			switch {
			case step && isNegZero(truth[k]) && isNegZero(ringW[k]):
				// Only here: the ring's step leaves −0, the gather's gives +0.
				moved++
				if !isNegZero(want) || math.Float64bits(got) != 0 {
					t.Fatalf("step, element %d: gather %v (%#x), ring %v (%#x); want +0 and −0", k, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			case !step && isNegZero(truth[k]):
				moved++
				if !isNegZero(got) || math.Float64bits(want) != 0 {
					t.Fatalf("sync, element %d: gather %v (%#x), ring %v (%#x); want −0 and +0", k, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			case math.Float64bits(got) != math.Float64bits(want):
				t.Fatalf("step %v, element %d: gather %v, ring %v", step, k, got, want)
			}
			for r := 1; r < ranks; r++ {
				if math.Float64bits(grads[r][k]) != math.Float64bits(got) {
					t.Fatalf("step %v, element %d: rank %d %v, rank 0 %v", step, k, r, grads[r][k], got)
				}
			}
		}
		if moved == 0 {
			t.Fatalf("step %v: no −0 gradient met the case under test", step)
		}
	}
}
