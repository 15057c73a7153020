package moe

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// The single-rank layer's sequential Forward/Backward, kept as the oracle
// every World ≡ layer suite compares against: Order scatters the tokens
// into an (E, T, M) buffer, the dispatch hooks act on it, each expert runs
// as one full-block pass in index order, the combine hooks act on the
// outputs, and I-Order gathers them; the backward is its adjoint, straight
// through the hooks. It shares the routing prolog and epilog and the adjoint
// helpers with the Worlds, and nothing else.

// blockPass is a pass over a whole block as one row range and the full
// column range, on memory of its own: how the oracles drive the contract.
type blockPass struct {
	ex   Expert
	pass ExpertPass
	mem  *tensor.Tensor // pooled: the forward exchange buffer, then the scratch
}

// forwardBlock runs ex's forward on x (n, M) into out (n, M). A forward-only
// caller may drop the result and leak its pooled memory to the GC.
func forwardBlock(ex Expert, x, out *tensor.Tensor) *blockPass {
	n, w := x.Dim(0), ex.HiddenWidth()
	hf := ex.FwdBands() * n * w
	mem := tensor.GetUninit(hf + ex.ScratchElems(n, 0, w))
	b := &blockPass{ex: ex, mem: mem}
	b.pass = ex.Begin(PassBufs{X: x, Out: out, Hidden: tensor.FromData(mem.Data()[:hf], ex.FwdBands()*n, w), Scratch: mem.Data()[hf:], Ch: w})
	b.pass.BeginForward()
	b.pass.ForwardHidden(tensor.Window(0, n))
	b.pass.ForwardOut(tensor.Window(0, n))
	return b
}

// backward is forwardBlock's adjoint: dx from dy, the parameter gradients
// added to Param.G. It ends the pass.
func (b *blockPass) backward(dy, dx *tensor.Tensor) {
	n := dy.Dim(0)
	hb := tensor.GetUninit(b.ex.BwdBands()*n, b.ex.HiddenWidth())
	b.pass.BeginBackward(dy, dx, hb, false)
	b.pass.BackwardHidden(tensor.Window(0, n))
	b.pass.BackwardIn(tensor.Window(0, n))
	b.pass.Finish(n)
	tensor.Put(hb)
	tensor.Put(b.mem)
}

// oracleLayerCache holds everything oracleLayerBackward needs.
type oracleLayerCache struct {
	shape     []int
	x         *tensor.Tensor
	routeC    *RouteCache
	plan      *DispatchPlan
	expertOut *tensor.Tensor // (E, T, M): the combine hooks' result
	passes    []*blockPass
}

func oracleLayerForward(l *MOELayer, x *tensor.Tensor, train bool) (*tensor.Tensor, *oracleLayerCache, error) {
	pr, err := l.prolog(x, train)
	if err != nil {
		return nil, nil, err
	}
	plan := pr.plan
	scattered := tensor.New(plan.Experts, plan.Capacity, l.cfg.M)
	l.cfg.Order.Scatter(scattered, pr.flat, plan)
	dispatched := l.hooks.apply(scattered, beforeDispatch, afterDispatch)

	expertOut := tensor.New(plan.Experts, plan.Capacity, l.cfg.M)
	passes := make([]*blockPass, plan.Experts)
	for e, ex := range l.cfg.Experts {
		passes[e] = forwardBlock(ex, slotBlock(dispatched, e, plan.Capacity), slotBlock(expertOut, e, plan.Capacity))
	}
	combined := l.hooks.apply(expertOut, beforeCombine, afterCombine)

	y := l.epilog(tensor.New(pr.flat.Dim(0), l.cfg.M), combined, plan, pr.shape)
	return y, &oracleLayerCache{shape: pr.shape, x: pr.flat, routeC: pr.rc, plan: plan, expertOut: combined, passes: passes}, nil
}

func oracleLayerBackward(l *MOELayer, cache *oracleLayerCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	plan := cache.plan
	dExpertOut := tensor.New(plan.Experts, plan.Capacity, l.cfg.M)
	planGrad, err := l.backwardProlog(dExpertOut, cache.expertOut, plan, dy)
	if err != nil {
		return nil, err
	}
	dDispatched := tensor.New(plan.Experts, plan.Capacity, l.cfg.M)
	for e, ps := range cache.passes {
		ps.backward(slotBlock(dExpertOut, e, plan.Capacity), slotBlock(dDispatched, e, plan.Capacity))
	}
	n := cache.x.Dim(0)
	dx, gateDx := tensor.New(n, l.cfg.M), tensor.New(n, l.cfg.M)
	l.scatterAdjoint(dx, dDispatched, cache.x, plan, planGrad)
	l.cfg.Gate.Backward(gateDx, cache.routeC, planGrad)
	tensor.AddInPlace(dx, gateDx)
	return restoreShape(dx, cache.shape), nil
}

// withHooks returns a layer over l's gate, order and experts with hooks
// registered: its passes read and write l's parameters.
func withHooks(t *testing.T, l *MOELayer, hooks ...Hooks) *MOELayer {
	t.Helper()
	cfg := l.cfg
	cfg.Hooks = hooks
	hooked, err := NewMOELayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return hooked
}

// mapRows returns a hook that replaces every row of its input by f of it:
// into a new tensor, or, with inPlace, over the input itself.
func mapRows(inPlace bool, f func(dst, src []float64)) func(*tensor.Tensor) *tensor.Tensor {
	return func(x *tensor.Tensor) *tensor.Tensor {
		out := x
		if !inPlace {
			out = tensor.New(x.Shape()...)
		}
		m := x.Dim(x.Rank() - 1)
		for lo := 0; lo < x.Size(); lo += m {
			f(out.Data()[lo:lo+m], x.Data()[lo:lo+m])
		}
		return out
	}
}

// scaleBy returns a hook that scales its input by a, into a new tensor.
func scaleBy(a float64) func(*tensor.Tensor) *tensor.Tensor {
	return mapRows(false, func(dst, src []float64) { tensor.ScaleRow(dst, src, a) })
}

// rowHooks are row-wise hooks at all four dispatch and combine points, two
// returning a new tensor and two working in place, each row's result a
// function of that row alone — so the padded buffers of R > 1 leave the
// real rows' bits alone.
func rowHooks() Hooks {
	return Hooks{
		BeforeDispatch: mapRows(false, func(dst, src []float64) {
			for i, v := range src {
				dst[i] = 0.5*v + 0.125
			}
		}),
		AfterDispatch: mapRows(true, func(dst, src []float64) {
			s := 0.0
			for _, v := range src {
				s += v * v
			}
			for i := range dst {
				dst[i] = src[i] / (1 + s)
			}
		}),
		BeforeCombine: mapRows(true, func(dst, src []float64) {
			for i, v := range src {
				dst[i] = 3 * v
			}
		}),
		AfterCombine: mapRows(false, func(dst, src []float64) {
			peak := 0.0
			for _, v := range src {
				peak = max(peak, v, -v)
			}
			for i, v := range src {
				dst[i] = v - 0.25*peak
			}
		}),
	}
}

// TestWorldHooksMatchOracle: a layer with row-wise hooks at every dispatch
// and combine point is bit-identical to the oracle under every strategy,
// group width and pipeline degree, at R = 1 and R = 4 — a hooked sparse plan
// takes the Order-filled buffer instead of the fused slot index — and
// through the layer's own one-rank World. At R = 1 the compression pair of
// TestHookCanTransformActivations and the six hooks' order hold on a World
// too, and a hook that changes the buffer's size fails the pass.
func TestWorldHooksMatchOracle(t *testing.T) {
	x := tensor.RandN(xrand.New(71), 1, 4, 24, 32) // N = 96: capacities pad at R = 4
	dy := tensor.RandN(xrand.New(72), 1, 4, 24, 32)
	for _, strat := range []Strategy{StrategyEP, StrategyESP, StrategyDenseSlots, StrategyHybrid} {
		layer := withHooks(t, strategyLayer(t, strat, false), rowHooks())
		want := runSequentialLayer(t, layer, x, dy)
		layer.ZeroGrad()
		compareSnapshots(t, string(strat)+" layer", want, runLayer(t, layer, x, dy))
		for _, ranks := range []int{1, 4} {
			groups := []int{1}
			switch {
			case strat == StrategyESP:
				groups = []int{ranks}
			case strat == StrategyHybrid && ranks == 4:
				groups = []int{1, 2, 4}
			}
			for _, g := range groups {
				for _, r := range []int{1, 2, 4} {
					cfg := WorldConfig{Ranks: ranks, PipelineDegree: r, Strategy: strat, GroupSize: g}
					got := runWorld(t, layer, cfg, x, dy, false)
					compareSnapshots(t, fmt.Sprintf("strategy=%s R=%d g=%d r=%d", strat, ranks, g, r), want, got)
				}
			}
		}
	}

	base := worldLayer(t, "gshard", TutelOrder{}, false, false)
	one := WorldConfig{Ranks: 1, PipelineDegree: 2, Strategy: StrategyEP}
	scaled := withHooks(t, base, Hooks{
		BeforeDispatch: scaleBy(0.5),
		AfterDispatch:  scaleBy(2),
	})
	compareSnapshots(t, "scale pair", runSequentialLayer(t, scaled, x, dy), runWorld(t, scaled, one, x, dy, false))
	compareSnapshots(t, "scale pair vs no hooks", runSequentialLayer(t, base, x, dy), runWorld(t, scaled, one, x, dy, false))

	var calls []string
	mark := func(name string) func(*tensor.Tensor) *tensor.Tensor {
		return func(x *tensor.Tensor) *tensor.Tensor { calls = append(calls, name); return x }
	}
	order := withHooks(t, base, Hooks{
		BeforeMoeStart: mark("start"), BeforeDispatch: mark("before-dispatch"), AfterDispatch: mark("after-dispatch"),
		BeforeCombine: mark("before-combine"), AfterCombine: mark("after-combine"), BeforeMoeEnd: mark("end"),
	}, Hooks{BeforeDispatch: mark("second-before-dispatch"), AfterCombine: mark("second-after-combine")})
	runWorld(t, order, one, x, dy, false)
	wantCalls := []string{"start", "before-dispatch", "second-before-dispatch", "after-dispatch",
		"before-combine", "after-combine", "second-after-combine", "end"}
	if !slices.Equal(calls, wantCalls) {
		t.Fatalf("hooks fired %v, want %v", calls, wantCalls)
	}

	for _, stage := range []Hooks{
		{AfterDispatch: func(x *tensor.Tensor) *tensor.Tensor { return tensor.New(1, x.Dim(2)) }},
		{BeforeCombine: func(x *tensor.Tensor) *tensor.Tensor { return tensor.New(x.Dim(0), x.Dim(1)+1, x.Dim(2)) }},
	} {
		bad := withHooks(t, base, stage)
		for _, ranks := range []int{1, 4} {
			w, err := NewWorld(bad, WorldConfig{Ranks: ranks, PipelineDegree: 1, Strategy: StrategyEP})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := w.Forward(x, false); err == nil {
				t.Fatalf("R=%d: a hook that changes the buffer's size must fail the pass", ranks)
			}
			w.Close()
		}
	}
}

// runLayer is runWorld through the layer's own Forward and Backward.
func runLayer(t *testing.T, l *MOELayer, x, dy *tensor.Tensor) worldSnapshot {
	t.Helper()
	y, cache, err := l.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := l.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	return worldSnapshot{y: y, dx: dx, grads: snapGrads(l)}
}

// TestLayerStartsNoGoroutine: the layer's one-rank World runs on its
// caller and fans its GEMMs out onto the default kernel pool, so building it
// and a hundred passes leave the goroutine count where the default pool's
// own start left it.
func TestLayerStartsNoGoroutine(t *testing.T) {
	tensor.ParallelFor(64, func(int) {}) // starts the default pool's workers, if nothing has yet
	base := settledGoroutines()
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	x := tensor.RandN(xrand.New(73), 1, 96, 32)
	dy := tensor.RandN(xrand.New(74), 1, 96, 32)
	for range 100 {
		runLayer(t, layer, x, dy)
	}
	if n := settledGoroutines(); n != base {
		t.Fatalf("100 layer passes: %d goroutines, %d before them", n, base)
	}
}

// settledGoroutines returns the goroutine count once it holds still for
// 5 ms: the helpers of worlds and pools earlier tests closed leave on their
// own time.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 200 {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// softGate routes densely without declaring it (no DenseRouter): a custom
// soft gate the layer must step all the same.
type softGate struct{ inner Gate }

func (g softGate) Name() string { return "custom-soft" }
func (g softGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	return g.inner.Route(x, train)
}
func (g softGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	g.inner.Backward(dx, rc, grad)
}
func (g softGate) Params() []*Param { return g.inner.Params() }

// TestLayerCustomDenseGate: a custom dense gate that does not implement
// DenseRouter steps through the layer, bit-identical to the oracle, and a
// hard-routing layer after it on the same code path; a World under
// StrategyAuto prices the undeclared gate as hard and runs its dense plans
// bit-identically too.
func TestLayerCustomDenseGate(t *testing.T) {
	soft := softmoeLayer(t, false, 3)
	cfg := soft.cfg
	cfg.Gate = softGate{soft.cfg.Gate}
	layer, err := NewMOELayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := layer.cfg.Gate.(DenseRouter); ok {
		t.Fatal("the custom gate must not be a DenseRouter")
	}
	x := tensor.RandN(xrand.New(75), 1, 96, 32)
	dy := tensor.RandN(xrand.New(76), 1, 96, 32)
	for step := 0; step < 2; step++ {
		want := runSequentialLayer(t, layer, x, dy)
		layer.ZeroGrad()
		compareSnapshots(t, fmt.Sprintf("custom dense gate, pass %d", step), want, runLayer(t, layer, x, dy))
	}
	hard := worldLayer(t, "sigmoid", TutelOrder{}, false, false)
	want := runSequentialLayer(t, hard, x, dy)
	hard.ZeroGrad()
	compareSnapshots(t, "hard gate", want, runLayer(t, hard, x, dy))

	want = runSequentialLayer(t, layer, x, dy)
	compareSnapshots(t, "undeclared dense gate under StrategyAuto", want, runWorld(t, layer, WorldConfig{Ranks: 2, PipelineDegree: 1}, x, dy, false))
}
