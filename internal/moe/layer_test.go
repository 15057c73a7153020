package moe

import (
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

func newTestLayer(t *testing.T, rng *xrand.RNG, gate Gate, order Order) *MOELayer {
	t.Helper()
	experts := make([]Expert, testE)
	for i := range experts {
		e, err := NewGPTFFN(testM, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		experts[i] = e
	}
	l, err := NewMOELayer(LayerConfig{M: testM, Gate: gate, Order: order, Experts: experts})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayerConfigValidation(t *testing.T) {
	rng := xrand.New(1)
	g, _ := NewSigmoidGate(GateConfig{Experts: 2, TopK: 1}, 4, rng)
	e, _ := NewGPTFFN(4, 8, rng)
	cases := []LayerConfig{
		{M: 0, Gate: g, Order: TutelOrder{}, Experts: []Expert{e}},
		{M: 4, Order: TutelOrder{}, Experts: []Expert{e}},
		{M: 4, Gate: g, Experts: []Expert{e}},
		{M: 4, Gate: g, Order: TutelOrder{}},
	}
	for i, c := range cases {
		if _, err := NewMOELayer(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLayerForwardShapes(t *testing.T) {
	rng := xrand.New(2)
	for _, g := range allGates(t, rng) {
		l := newTestLayer(t, rng, g, TutelOrder{})
		// 3-D input.
		x3 := tensor.RandN(rng, 1, 2, 5, testM)
		y3, _, err := l.Forward(x3, false)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if y3.Rank() != 3 || y3.Dim(0) != 2 || y3.Dim(1) != 5 || y3.Dim(2) != testM {
			t.Fatalf("%s: 3-D output shape %v", g.Name(), y3.Shape())
		}
		// 2-D input.
		x2 := tensor.RandN(rng, 1, testN, testM)
		y2, _, err := l.Forward(x2, false)
		if err != nil {
			t.Fatal(err)
		}
		if y2.Rank() != 2 || y2.Dim(0) != testN {
			t.Fatalf("%s: 2-D output shape %v", g.Name(), y2.Shape())
		}
	}
}

func TestLayerRejectsBadShapes(t *testing.T) {
	rng := xrand.New(3)
	l := newTestLayer(t, rng, mustSigmoid(t, rng), TutelOrder{})
	if _, _, err := l.Forward(tensor.New(4), false); err == nil {
		t.Error("rank-1 input accepted")
	}
	if _, _, err := l.Forward(tensor.New(3, testM+2), false); err == nil {
		t.Error("wrong embedding accepted")
	}
}

func mustSigmoid(t *testing.T, rng *xrand.RNG) Gate {
	t.Helper()
	g, err := NewSigmoidGate(GateConfig{Experts: testE, TopK: testK, Factor: 0}, testM, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustGShard(t *testing.T, rng *xrand.RNG) Gate {
	t.Helper()
	g, err := NewGShardGate(GateConfig{Experts: testE, TopK: testK, Factor: 1.5}, testM, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLayerOrderEquivalence: the same layer must produce identical outputs
// under either ordering implementation (§3.1 interchangeability, end to
// end).
func TestLayerOrderEquivalence(t *testing.T) {
	rngA := xrand.New(42)
	rngB := xrand.New(42)
	for i, mk := range []func(*xrand.RNG) Gate{
		func(r *xrand.RNG) Gate {
			g, _ := NewGShardGate(GateConfig{Experts: testE, TopK: testK}, testM, r)
			return g
		},
		func(r *xrand.RNG) Gate {
			g, _ := NewECGate(GateConfig{Experts: testE, TopK: testK, Factor: 1.2}, testM, r)
			return g
		},
	} {
		la := newTestLayer(t, rngA, mk(rngA), GShardOrder{})
		lb := newTestLayer(t, rngB, mk(rngB), TutelOrder{})
		rx := xrand.New(77)
		x := tensor.RandN(rx, 1, testN, testM)
		ya, _, err := la.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		yb, _, err := lb.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if !allClose(ya, yb, 1e-9) {
			t.Fatalf("case %d: outputs differ between orders: max %v", i, ya.MaxAbsDiff(yb))
		}
	}
}

// TestLayerGradientsAllGates is the heavyweight correctness test: for every
// gate, the analytic input gradient and all parameter gradients must match
// central differences on a small layer.
func TestLayerGradientsAllGates(t *testing.T) {
	rng := xrand.New(2024)
	for _, g := range allGates(t, rng) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			l := newTestLayer(t, rng, g, TutelOrder{})
			rx := xrand.New(5)
			x := tensor.RandN(rx, 1, testN, testM)
			r := tensor.RandN(rx, 1, testN, testM)

			loss := func(xx *tensor.Tensor) float64 {
				y, _, err := l.Forward(xx, false)
				if err != nil {
					t.Fatal(err)
				}
				return lossOf(y, r)
			}

			l.ZeroGrad()
			y, cache, err := l.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			_ = y
			dx, err := l.Backward(cache, r.Clone())
			if err != nil {
				t.Fatal(err)
			}

			const eps = 1e-6
			bad := 0
			for i := 0; i < x.Size(); i += 5 {
				num := numGradInput(loss, x, i, eps)
				ana := dx.Data()[i]
				if math.Abs(num-ana) > 2e-4*(1+math.Abs(num)) {
					bad++
					if bad < 4 {
						t.Errorf("input grad[%d]: numeric %v vs analytic %v", i, num, ana)
					}
				}
			}
			if bad > 0 {
				t.Fatalf("%d input-gradient mismatches", bad)
			}

			for _, p := range l.Params() {
				stride := p.W.Size()/4 + 1
				for i := 0; i < p.W.Size(); i += stride {
					orig := p.W.Data()[i]
					p.W.Data()[i] = orig + eps
					up := loss(x)
					p.W.Data()[i] = orig - eps
					down := loss(x)
					p.W.Data()[i] = orig
					num := (up - down) / (2 * eps)
					ana := p.G.Data()[i]
					if math.Abs(num-ana) > 2e-4*(1+math.Abs(num)) {
						t.Fatalf("%s grad[%d]: numeric %v vs analytic %v", p.Name, i, num, ana)
					}
				}
			}
		})
	}
}

// TestGShardNoisyPathGradients pins the noise draws — the gate's generator
// state, restored before every pass — and checks that the W_noise gradient
// path of the noisy gate is exact.
func TestGShardNoisyPathGradients(t *testing.T) {
	rng := xrand.New(31)
	cfg := GateConfig{Experts: testE, TopK: testK, Factor: 0}
	g, err := NewGShardGate(cfg, testM, rng)
	if err != nil {
		t.Fatal(err)
	}
	l := newTestLayer(t, rng, g, TutelOrder{})
	rx := xrand.New(6)
	x := tensor.RandN(rx, 1, testN, testM)
	r := tensor.RandN(rx, 1, testN, testM)

	state, gamma := g.RNGState()
	loss := func(xx *tensor.Tensor) float64 {
		g.SetRNGState(state, gamma)      // the same noise draws as the analytic pass
		y, _, err := l.Forward(xx, true) // train mode: noise active
		if err != nil {
			t.Fatal(err)
		}
		return lossOf(y, r)
	}
	l.ZeroGrad()
	g.SetRNGState(state, gamma)
	_, cache, err := l.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Backward(cache, r.Clone()); err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	wnoise := g.Params()[1]
	for i := 0; i < wnoise.W.Size(); i += 5 {
		orig := wnoise.W.Data()[i]
		wnoise.W.Data()[i] = orig + eps
		up := loss(x)
		wnoise.W.Data()[i] = orig - eps
		down := loss(x)
		wnoise.W.Data()[i] = orig
		num := (up - down) / (2 * eps)
		ana := wnoise.G.Data()[i]
		if math.Abs(num-ana) > 2e-4*(1+math.Abs(num)) {
			t.Fatalf("wnoise grad[%d]: numeric %v vs analytic %v", i, num, ana)
		}
	}
}

func TestHooksFireInOrder(t *testing.T) {
	rng := xrand.New(16)
	var calls []string
	mark := func(name string) func(x *tensor.Tensor) *tensor.Tensor {
		return func(x *tensor.Tensor) *tensor.Tensor {
			calls = append(calls, name)
			return x
		}
	}
	experts := []Expert{mustExpert(t, rng), mustExpert(t, rng), mustExpert(t, rng), mustExpert(t, rng)}
	l, err := NewMOELayer(LayerConfig{
		M:       testM,
		Gate:    mustSigmoid(t, rng),
		Order:   TutelOrder{},
		Experts: experts,
		Hooks: []Hooks{{
			BeforeMoeStart: mark("start"),
			BeforeDispatch: mark("before-dispatch"),
			AfterDispatch:  mark("after-dispatch"),
			BeforeCombine:  mark("before-combine"),
			AfterCombine:   mark("after-combine"),
			BeforeMoeEnd:   mark("end"),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(rng, 1, testN, testM)
	if _, _, err := l.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	want := []string{"start", "before-dispatch", "after-dispatch", "before-combine", "after-combine", "end"}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", calls, want)
		}
	}
}

func mustExpert(t *testing.T, rng *xrand.RNG) Expert {
	t.Helper()
	e, err := NewGPTFFN(testM, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestHookCanTransformActivations(t *testing.T) {
	// A compression-style hook pair: scale down before dispatch, scale up
	// after. The layer output must match the hook-free layer.
	rngA := xrand.New(17)
	rngB := xrand.New(17)
	base := newTestLayer(t, rngA, mustSigmoid(t, rngA), TutelOrder{})
	hooked, err := NewMOELayer(LayerConfig{
		M:       testM,
		Gate:    mustSigmoid(t, rngB),
		Order:   TutelOrder{},
		Experts: base.cfg.Experts, // share experts so outputs are comparable
		Hooks: []Hooks{{
			BeforeDispatch: scaleBy(0.5),
			AfterDispatch:  scaleBy(2),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(xrand.New(3), 1, testN, testM)
	y1, _, err := base.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	y2, _, err := hooked.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !allClose(y1, y2, 1e-9) {
		t.Fatalf("hook round trip changed output: %v", y1.MaxAbsDiff(y2))
	}
}

func TestLayerZeroGrad(t *testing.T) {
	rng := xrand.New(18)
	l := newTestLayer(t, rng, mustSigmoid(t, rng), TutelOrder{})
	x := tensor.RandN(rng, 1, testN, testM)
	_, cache, err := l.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Backward(cache, tensor.RandN(rng, 1, testN, testM)); err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for _, p := range l.Params() {
		for _, v := range p.G.Data() {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("backward accumulated no gradients")
	}
	l.ZeroGrad()
	for _, p := range l.Params() {
		for _, v := range p.G.Data() {
			if v != 0 {
				t.Fatal("ZeroGrad left residue")
			}
		}
	}
}

func TestLayerGateExpertCountMismatch(t *testing.T) {
	rng := xrand.New(19)
	g, _ := NewSigmoidGate(GateConfig{Experts: 3, TopK: 1}, testM, rng)
	e0, _ := NewGPTFFN(testM, 8, rng)
	e1, _ := NewGPTFFN(testM, 8, rng)
	l, err := NewMOELayer(LayerConfig{M: testM, Gate: g, Order: TutelOrder{}, Experts: []Expert{e0, e1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Forward(tensor.RandN(rng, 1, 4, testM), false); err == nil {
		t.Fatal("expected expert-count mismatch error")
	}
}

// allClose reports whether every element of a is within tol of b's, shapes
// equal; a NaN difference is never within tol.
func allClose(a, b *tensor.Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	bd := b.Data()
	for i, v := range a.Data() {
		if !(math.Abs(v-bd[i]) <= tol) {
			return false
		}
	}
	return true
}

// TestLayerReleaseReplays: a released forward hands its workspace and
// routing scratch back, so the next Forward runs in the same workspace with
// the bits of a fresh layer's, and a released or consumed cache's Backward
// fails with ErrCacheReleased.
func TestLayerReleaseReplays(t *testing.T) {
	const seed = 31
	l, twin := newTestLayer(t, xrand.New(seed), mustGShard(t, xrand.New(seed+1)), TutelOrder{}),
		newTestLayer(t, xrand.New(seed), mustGShard(t, xrand.New(seed+1)), TutelOrder{})
	rng := xrand.New(seed + 2)
	x0, x, dy := tensor.RandN(rng, 1, testN, testM), tensor.RandN(rng, 1, testN, testM), tensor.RandN(rng, 1, testN, testM)

	_, released, err := l.Forward(x0, false)
	if err != nil {
		t.Fatal(err)
	}
	ws := released.ws
	l.Release(released)
	l.Release(released) // a second Release does nothing
	if _, err := l.Backward(released, dy); !errors.Is(err, ErrCacheReleased) {
		t.Fatalf("Backward over a released cache: %v, want ErrCacheReleased", err)
	}

	y, cache, err := l.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if cache.ws != ws {
		t.Fatal("the Forward after a Release cut a new workspace")
	}
	dx, err := l.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Backward(cache, dy); !errors.Is(err, ErrCacheReleased) {
		t.Fatalf("a second Backward over one cache: %v, want ErrCacheReleased", err)
	}
	l.Release(cache) // a consumed cache: nothing to hand back

	wantY, wantCache, err := twin.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	wantDx, err := twin.Backward(wantCache, dy)
	if err != nil {
		t.Fatal(err)
	}
	if !y.SameBits(wantY) || !dx.SameBits(wantDx) {
		t.Fatal("the pass after a Release differs from a fresh layer's")
	}
	for i, p := range l.Params() {
		if !p.G.SameBits(twin.Params()[i].G) {
			t.Fatalf("param %s: gradient differs from a fresh layer's", p.Name)
		}
	}
}

// layerReleaseSlack is TestLayerForwardOnlyAllocations' byte allowance per
// forward-only call beyond its (N, M) output, with and without the race
// detector. On a 2-core box a warm call allocated 400 B besides at E = 8
// and at E = 32, in 11 allocations, on every one of 20 runs and of 10 under
// -race, at GOMAXPROCS 1 and 2: the prolog and the cache, the same at every
// E and pool width, since a parallel product hands the pool a value, not a
// closure; at GOMAXPROCS 4 and 8 too, on 20 runs each, once the runtime
// has spare sudogs (spareSudogs). The allowance is 1.5× the reading: no
// room for a routing matrix, a workspace slot or a closure per expert.
const layerReleaseSlack = 600

// TestLayerForwardOnlyAllocations: after the first call, a forward-only
// Layer call — Forward, then Release — allocates its output and under
// layerReleaseSlack besides, at E = 8 and E = 32
// (BenchmarkMoELayerForward's layers): the workspace, the resident forward
// plan, the expert passes and the gate's routing scratch are all reused.
func TestLayerForwardOnlyAllocations(t *testing.T) {
	for _, e := range []int{8, 32} {
		l, x := benchLayer(t, e)
		call := func() {
			_, cache, err := l.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			l.Release(cache)
		}
		call()
		spareThreads(runtime.GOMAXPROCS(0) + 4)
		runtime.GC()
		prev := debug.SetGCPercent(-1)
		spareSudogs(1024)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		call()
		runtime.ReadMemStats(&m1)
		debug.SetGCPercent(prev)
		out := uint64(8 * x.Dim(0) * x.Dim(1))
		got := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("E=%d: a forward-only call allocated %d B in %d allocations: its %d B output and %d B", e, got, m1.Mallocs-m0.Mallocs, out, got-out)
		if got >= out+layerReleaseSlack {
			t.Fatalf("E=%d: a forward-only call allocated %d B, want under its %d B output plus %d", e, got, out, layerReleaseSlack)
		}
	}
}
