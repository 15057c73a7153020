package gradsync

import (
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
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

// testSpecs builds L layers of n elements and three emit points each, with
// simulator-consistent byte accounting on Testbed A's models.
func testSpecs(l, n int) (Config, []LayerSpec) {
	cfg := Config{Models: core.ModelsFromCluster(topology.TestbedA()), ElemBytes: 4, Slices: 3}
	specs := make([]LayerSpec, l)
	for i := range specs {
		specs[i] = LayerSpec{
			Elems:  n,
			Points: 3,
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

// backwardPlan builds layer i's stand-in backward plan the way a stream-plan
// builder does: at each emit point pt, one AllReduce task per slice of
// Hidden(i)[pt] on the inter stream. poison, when at least 0, puts a task
// that fails with a permanent fault before point poison's slices.
func backwardPlan(p *Plan, i, poison int) *runtime.Plan {
	rp := runtime.NewPlan()
	for pt, sls := range p.Hidden(i) {
		if pt == poison {
			rp.Add("poison", "Experts", "inter", 1, func() error {
				return fault.NewPermanent(0, "poison", "injected rank-down")
			})
		}
		for _, sl := range sls {
			rp.Add(sl.Name, KindAllReduce, "inter", float64(2*sl.Len())/1e6, func() error { p.Run(sl); return nil })
		}
	}
	return rp
}

// driveBackward runs one step's synchronization under p: Begin, every
// layer's backward plan in reverse layer order, executed for real, and
// Finish.
func driveBackward(t *testing.T, p *Plan, update Update) Report {
	t.Helper()
	p.Begin(update)
	for i := len(p.specs) - 1; i >= 0; i-- {
		if rp := backwardPlan(p, i, -1); rp.Len() > 0 {
			if _, err := rp.Execute(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p.Finish()
}

// mustSolve solves the schedule for (cfg, specs).
func mustSolve(t testing.TB, cfg Config, specs []LayerSpec) *Plan {
	t.Helper()
	p, err := Solve(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanStrategiesBitIdentical: all three strategies must leave every
// layer's gradients the identical bytes — only scheduling differs — and
// account every byte once, hidden or in the tail.
func TestPlanStrategiesBitIdentical(t *testing.T) {
	const layers, n = 3, 501
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n)
		cfg.Strategy = strat
		cfg.ChunkBytes = 256 * 4 // small fixed chunks so Lina actually slices
		grads := make([][]float64, layers)
		truths := make([][]float64, layers)
		for i := range grads {
			grads[i], truths[i] = randGrads(uint64(50+i), n)
		}
		rep := driveBackward(t, mustSolve(t, cfg, specs), nil)
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

// TestPlanFSMoEHidesBytes: with Testbed A models and comfortable
// windows, the adaptive plan must hide a positive share inside the plans.
func TestPlanFSMoEHidesBytes(t *testing.T) {
	const layers, n = 4, 2048
	cfg, specs := testSpecs(layers, n)
	for i := range specs {
		specs[i].Points = 2
	}
	rep := driveBackward(t, mustSolve(t, cfg, specs), nil)
	if rep.HiddenBytes <= 0 {
		t.Fatalf("adaptive plan hid nothing (report %+v, gar %+v)", rep, rep.Gar)
	}
}

// TestSolveValidation covers Solve's rejection of bad inputs.
func TestSolveValidation(t *testing.T) {
	cfg, specs := testSpecs(2, 64)
	if _, err := Solve(cfg, nil); err == nil {
		t.Fatal("no layers must fail")
	}
	bad := slices.Clone(specs)
	bad[0].Elems = 0
	if _, err := Solve(cfg, bad); err == nil {
		t.Fatal("a layer with no gradient elements must fail")
	}
	bad = slices.Clone(specs)
	bad[1].Points = 0
	if _, err := Solve(cfg, bad); err == nil {
		t.Fatal("a layer with no emit points must fail")
	}
	bad = slices.Clone(specs)
	bad[0].V.ExpGEMMs = 0
	if _, err := Solve(cfg, bad); err == nil {
		t.Fatal("invalid volumes must fail")
	}
	cfg.Strategy = "warp-drive"
	if _, err := Solve(cfg, specs); err == nil {
		t.Fatal("unknown strategy must fail")
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

// stepBuffers builds layers gradient buffers of n elements from seed on,
// their starting values, and the per-element Update counts.
func stepBuffers(layers, n int, seed uint64) (grads, truth, seen [][]float64) {
	grads, truth, seen = make([][]float64, layers), make([][]float64, layers), make([][]float64, layers)
	for i := range grads {
		grads[i], truth[i] = randGrads(seed+uint64(i), n)
		seen[i] = make([]float64, n)
	}
	return grads, truth, seen
}

// TestPlanAbortedReclaimsSlices: a backward plan that aborts mid-run
// (a permanent fault cancels the inter stream, skipping its remaining slice
// tasks) loses none of them: Finish runs every slice no plan ran, once, so
// the stepped values stay exact, and the Report counts each slice where it
// ran — every byte once, and as many slices as a clean step.
func TestPlanAbortedReclaimsSlices(t *testing.T) {
	const layers, n = 3, 800
	cfg, specs := testSpecs(layers, n)
	cfg.Strategy = StrategyFixedChunk
	cfg.ChunkBytes = 100 * cfg.ElemBytes
	plan := mustSolve(t, cfg, specs)
	grads, truth, seen := stepBuffers(layers, n, 900)
	clean := driveBackward(t, plan, stepOnce(grads, seen))
	checkSteppedOnce(t, "clean step", grads, truth, seen)
	planned := clean.Slices + clean.TailSlices

	// Layer 2's plan hides nothing and layer 1's runs whole; layer 0's holds
	// layer 1's slices over three emit points, and a permanent fault lands
	// between points 0 and 1: the slices already run stay stepped, the rest
	// are skipped when the plan cancels.
	grads, truth, seen = stepBuffers(layers, n, 900)
	plan.Begin(stepOnce(grads, seen))
	for i := layers - 1; i >= 0; i-- {
		poison := -1
		if i == 0 {
			poison = 1
		}
		_, err := backwardPlan(plan, i, poison).Execute()
		if (err != nil) != (i == 0) {
			t.Fatalf("layer %d's plan: err %v", i, err)
		}
	}
	if plan.rep.Slices == 0 || plan.rep.Slices == clean.Slices {
		t.Fatalf("layer 0's plan ran %d of %d slices; the scenario never formed", plan.rep.Slices, clean.Slices)
	}
	rep := plan.Finish()
	checkSteppedOnce(t, "aborted plan", grads, truth, seen)
	if rep.HiddenBytes+rep.TailBytes != rep.TotalBytes {
		t.Fatalf("hidden %v + tail %v != total %v", rep.HiddenBytes, rep.TailBytes, rep.TotalBytes)
	}
	if rep.Slices+rep.TailSlices != planned {
		t.Fatalf("%d hidden + %d tail slices, planned %d", rep.Slices, rep.TailSlices, planned)
	}
	if rep.TailSlices <= clean.TailSlices {
		t.Fatal("aborted plan's skipped slices never reached the tail")
	}
}

// TestPlanUpdateOncePerElement: a step begun with an Update leaves every
// layer's buffer with update(gradient) — under every strategy's slicing,
// whether a slice ran inside a plan or in the tail, at tail pool widths 1,
// 2 and 4, on one Plan reused pass after pass — having handed the Update
// each element of each layer exactly once.
func TestPlanUpdateOncePerElement(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	const layers, n = 3, 501
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n)
		cfg.Strategy = strat
		cfg.ChunkBytes = 256 * 4
		plan := mustSolve(t, cfg, specs)
		for pass, workers := range []int{1, 2, 4} {
			goruntime.GOMAXPROCS(workers)
			grads, truth, seen := stepBuffers(layers, n, 900)
			driveBackward(t, plan, stepOnce(grads, seen))
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
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	const layers, n, lr = 3, 5*comm.RingTile + 123, 0.25
	for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
		cfg, specs := testSpecs(layers, n)
		cfg.Strategy = strat
		cfg.ChunkBytes = float64(2*comm.RingTile+77) * cfg.ElemBytes
		plan := mustSolve(t, cfg, specs)
		var want [][]float64
		var wantRep Report
		for _, workers := range []int{1, 2, 4} {
			goruntime.GOMAXPROCS(workers)
			grads := make([][]float64, layers)
			weights := make([][]float64, layers)
			for i := range grads {
				grads[i], _ = randGrads(uint64(70+i), n)
				weights[i], _ = randGrads(uint64(80+i), n)
			}
			rep := driveBackward(t, plan, func(layer, lo, hi int) {
				tensor.AddScaledRow(weights[layer][lo:hi], grads[layer][lo:hi], -lr)
			})
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
		plan := mustSolve(t, cfg, specs)
		plan.Begin(update)
		plan.Finish()
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

// FuzzSyncSchedule checks the schedule as data for every strategy: up to six
// layers of drawn element counts, emit points and volumes, drawn Lina chunk
// and slice counts. The hidden slices and the tail together cover each
// element of each layer exactly once; layer i's plan hides only slices of
// layers > i, spread over exactly its emit points; no-overlap hides nothing,
// and FSMoE's layer i at most its GarPlan budget. A step that skips a drawn
// subset of the hidden slices (aborted plans) still updates every element
// once and accounts every byte once.
func FuzzSyncSchedule(f *testing.F) {
	f.Add(uint8(3), uint64(1), uint16(256), uint8(3), uint64(0))
	f.Add(uint8(1), uint64(7), uint16(1), uint8(1), uint64(5))
	f.Add(uint8(6), uint64(42), uint16(4000), uint8(9), uint64(0xfff))
	models := core.ModelsFromCluster(topology.TestbedA())
	f.Fuzz(func(t *testing.T, layers uint8, seed uint64, chunk uint16, nslices uint8, skip uint64) {
		l := int(layers%6) + 1
		rng := xrand.New(seed)
		specs := make([]LayerSpec, l)
		for i := range specs {
			n := 1 + int(rng.Uint64()%3000)
			specs[i] = LayerSpec{Elems: n, Points: 1 + int(rng.Uint64()%5), V: core.Volumes{
				NA2A: float64(1 + int(rng.Uint64()%uint64(1e7))), NAG: float64(int(rng.Uint64() % uint64(1e6))), NRS: float64(int(rng.Uint64() % uint64(1e6))),
				ExpMACs: float64(1 + int(rng.Uint64()%uint64(1e9))), ExpGEMMs: 2, DenseBwd: rng.Float64(),
				GradBytes: float64(n) * 4,
			}}
		}
		for _, strat := range []Strategy{StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap} {
			cfg := Config{Strategy: strat, Models: models, ChunkBytes: 4 * float64(chunk), Slices: int(nslices % 10), ElemBytes: 4}
			p := mustSolve(t, cfg, specs)
			cover := make([][]int, l)
			for i, sp := range specs {
				cover[i] = make([]int, sp.Elems)
			}
			mark := func(sl Slice) {
				for k := sl.Lo; k < sl.Hi; k++ {
					cover[sl.Layer][k]++
				}
			}
			var hidden []Slice
			for i := range specs {
				if got := len(p.Hidden(i)); got != specs[i].Points {
					t.Fatalf("%s: layer %d has %d emit points, spec says %d", strat, i, got, specs[i].Points)
				}
				elems := 0
				for _, sls := range p.Hidden(i) {
					for _, sl := range sls {
						if sl.Layer <= i || sl.Layer >= l || sl.Lo >= sl.Hi {
							t.Fatalf("%s: layer %d's plan hides %+v", strat, i, sl)
						}
						mark(sl)
						elems += sl.Len()
						hidden = append(hidden, sl)
					}
				}
				switch {
				case strat == StrategyNoOverlap && elems != 0:
					t.Fatalf("no-overlap layer %d hides %d elements", i, elems)
				case strat == StrategyFSMoE && float64(elems) > p.gar.HiddenBytes(i)/cfg.ElemBytes:
					t.Fatalf("fsmoe layer %d hides %d elements, budget %v bytes", i, elems, p.gar.HiddenBytes(i))
				}
			}
			for _, r := range p.tail {
				mark(r)
			}
			for i := range cover {
				for k, c := range cover[i] {
					if c != 1 {
						t.Fatalf("%s: layer %d element %d covered %d times", strat, i, k, c)
					}
				}
			}

			// One step that runs the hidden slices skip does not pick.
			seen := make([][]int, l)
			for i, sp := range specs {
				seen[i] = make([]int, sp.Elems)
			}
			p.Begin(func(layer, lo, hi int) {
				for k := lo; k < hi; k++ {
					seen[layer][k]++
				}
			})
			for k, sl := range hidden {
				if skip>>(k%64)&1 == 0 {
					p.Run(sl)
				}
			}
			rep := p.Finish()
			for i := range seen {
				for k, c := range seen[i] {
					if c != 1 {
						t.Fatalf("%s: layer %d element %d updated %d times", strat, i, k, c)
					}
				}
			}
			if rep.HiddenBytes+rep.TailBytes != rep.TotalBytes {
				t.Fatalf("%s: hidden %v + tail %v != total %v", strat, rep.HiddenBytes, rep.TailBytes, rep.TotalBytes)
			}
		}
	})
}

// BenchmarkFinishTail times one exposed tail of the repository benchmark's
// ep_params size (2.63 M elements) through Finish, the step's update —
// tensor.AddScaledRow by −lr into a weight buffer of its own, the gradient
// only read — split over the default tensor pool.
func BenchmarkFinishTail(b *testing.B) {
	const n = 2_630_000
	cfg, specs := testSpecs(1, n)
	cfg.Strategy = StrategyNoOverlap
	plan := mustSolve(b, cfg, specs)
	grads, _ := randGrads(1, n)
	weights, _ := randGrads(2, n)
	update := func(_, lo, hi int) { tensor.AddScaledRow(weights[lo:hi], grads[lo:hi], -1e-9) }
	for i := 0; i < b.N; i++ {
		plan.Begin(update)
		plan.Finish()
	}
}

// TestLinaChunkMatchesSimulated: at default settings the executable Lina
// baseline cuts a layer's gradient into as many AllReduce slices as the
// simulated Lina schedule prices. A 31 MB gradient is one chunk at 30 MiB
// and two at 30 MB, so the two defaults must be one size.
func TestLinaChunkMatchesSimulated(t *testing.T) {
	const gradBytes = 31e6
	m := core.ModelsFromCluster(topology.TestbedA())
	v := core.Volumes{NA2A: 1e6, NAG: 1e5, NRS: 1e5, ExpMACs: 1e8, ExpGEMMs: 2,
		DenseFwd: 0.1, DenseBwd: 0.3, GradBytes: gradBytes}
	res, err := m.SimulateIteration([]core.LayerSpec{{V: v}}, core.SystemLina, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	simulated := 0
	for _, iv := range res.Trace.Intervals {
		if iv.Task.Kind == KindAllReduce {
			simulated++
		}
	}
	p, err := Solve(Config{Strategy: StrategyFixedChunk, Models: m},
		[]LayerSpec{{Elems: int(gradBytes / 4), Points: 1, V: v}})
	if err != nil {
		t.Fatal(err)
	}
	executed := p.tailSlices
	for _, pt := range p.Hidden(0) {
		executed += len(pt)
	}
	if simulated != 2 || executed != simulated {
		t.Fatalf("Lina slices of a %.0f B gradient: simulated %d, executed %d; want 2 each", gradBytes, simulated, executed)
	}
}
