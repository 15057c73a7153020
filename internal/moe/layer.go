package moe

import (
	"fmt"
	"reflect"

	"repro/internal/tensor"
)

// LayerConfig assembles an MOELayer from sub-modules (§3.3's front-end).
type LayerConfig struct {
	M       int // token embedding size
	Gate    Gate
	Order   Order
	Experts []Expert
	Hooks   []Hooks

	// What the planner reads of the gate's routing (planner.go): the
	// routing hyperparameters the gate was built with (k, f) and SoftMoE
	// slots per expert (<1 means 1).
	GateConfig     GateConfig
	SlotsPerExpert int
}

// MOELayer is the full MoE layer of Fig. 1: gate → order → dispatch →
// expert → combine → I-order, with the six hook points of §3.1 threaded
// through. It can be used like any other layer: Forward produces the output
// and a cache, Backward consumes the cache and the output gradient.
type MOELayer struct {
	cfg   LayerConfig
	hooks hookChain
	// seqExperts disables concurrent expert execution when the expert list
	// provably or possibly aliases itself (see distinctExperts).
	seqExperts bool
}

// LayerCache holds everything Backward needs.
type LayerCache struct {
	shape     []int // original input shape
	x         *tensor.Tensor
	routeC    *RouteCache
	plan      *DispatchPlan
	expertOut *tensor.Tensor // (E, T, M)
	passes    []*blockPass
}

// NewMOELayer validates the configuration and assembles the layer.
func NewMOELayer(cfg LayerConfig) (*MOELayer, error) {
	if cfg.M <= 0 {
		return nil, fmt.Errorf("moe: M must be positive, got %d", cfg.M)
	}
	if cfg.Gate == nil {
		return nil, fmt.Errorf("moe: layer needs a gate")
	}
	if cfg.Order == nil {
		return nil, fmt.Errorf("moe: layer needs an order function")
	}
	if len(cfg.Experts) == 0 {
		return nil, fmt.Errorf("moe: layer needs at least one expert")
	}
	return &MOELayer{
		cfg:        cfg,
		hooks:      hookChain(cfg.Hooks),
		seqExperts: !distinctExperts(cfg.Experts),
	}, nil
}

// distinctExperts reports whether every expert is a provably distinct
// instance. Experts of non-comparable dynamic types cannot be told apart,
// so they count as possibly aliased — the layer then runs them
// sequentially, as it does the same instance registered at several indices
// (e.g. for weight tying).
func distinctExperts(exps []Expert) bool {
	seen := make(map[Expert]bool, len(exps))
	for _, e := range exps {
		if !reflect.TypeOf(e).Comparable() {
			return false
		}
		if seen[e] {
			return false
		}
		seen[e] = true
	}
	return true
}

// forEachExpert runs f(e) for every expert, concurrently on the shared
// worker pool unless the expert list requires sequential execution.
func (l *MOELayer) forEachExpert(f func(e int)) {
	if l.seqExperts {
		for e := 0; e < len(l.cfg.Experts); e++ {
			f(e)
		}
		return
	}
	tensor.ParallelFor(len(l.cfg.Experts), f)
}

// Gate returns the layer's gate.
func (l *MOELayer) Gate() Gate { return l.cfg.Gate }

// Params returns all trainable parameters (gate + experts).
func (l *MOELayer) Params() []*Param { return l.appendParams(nil) }

// appendParams appends Params to out.
func (l *MOELayer) appendParams(out []*Param) []*Param {
	out = append(out, l.cfg.Gate.Params()...)
	for _, e := range l.cfg.Experts {
		out = append(out, e.Params()...)
	}
	return out
}

// ZeroGrad clears every parameter gradient.
func (l *MOELayer) ZeroGrad() { zeroGrads(l.Params()) }

// forwardProlog is the routing stage every forward pass — sequential or
// multi-rank — runs exactly once before any dispatch chunk moves (§4.1's
// "gate and order, then pipeline"); the caller then has Order scatter the
// tokens into the expert-major buffer it owns.
type forwardProlog struct {
	shape []int          // original input shape
	flat  *tensor.Tensor // (N, M)
	plan  *DispatchPlan
	rc    *RouteCache
}

// prolog flattens and validates the input and routes it. The
// BeforeMoeStart hooks are applied.
func (l *MOELayer) prolog(x *tensor.Tensor, train bool) (*forwardProlog, error) {
	shape := append([]int(nil), x.Shape()...)
	var flat *tensor.Tensor
	switch x.Rank() {
	case 2:
		flat = x
	case 3:
		flat = x.Reshape(x.Dim(0)*x.Dim(1), x.Dim(2))
	default:
		return nil, fmt.Errorf("moe: input must be (B,L,M) or (N,M), got %v", x.Shape())
	}
	if flat.Dim(1) != l.cfg.M {
		return nil, fmt.Errorf("moe: input embedding %d, want %d", flat.Dim(1), l.cfg.M)
	}
	flat = l.hooks.beforeMoeStart(flat)
	n := flat.Dim(0)

	plan, rc, err := l.cfg.Gate.Route(flat, train)
	if err != nil {
		return nil, err
	}
	if plan.Experts != len(l.cfg.Experts) {
		return nil, fmt.Errorf("moe: gate routed to %d experts but layer has %d", plan.Experts, len(l.cfg.Experts))
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	return &forwardProlog{shape: shape, flat: flat, plan: plan, rc: rc}, nil
}

// epilog is the I-Order stage after the combine: gather the expert outputs
// (E, S, M) back to token order in y (N, M) and restore the caller's shape.
func (l *MOELayer) epilog(y, combined *tensor.Tensor, plan *DispatchPlan, shape []int) *tensor.Tensor {
	l.cfg.Order.Gather(y, combined, plan)
	y = l.hooks.beforeMoeEnd(y)
	if len(shape) == 3 {
		y = y.Reshape(shape...)
	}
	return y
}

// blockPass is a pass over a whole block as one row range and the full
// column range, on memory of its own: how the sequential layer, the degraded
// path and the expert tests drive the contract.
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
	b.pass.ForwardHidden(tensor.Window(0, n))
	b.pass.ForwardOut(tensor.Window(0, n))
	return b
}

// backward is forwardBlock's adjoint: dx from dy, the parameter gradients
// where grads says. It ends the pass.
func (b *blockPass) backward(dy, dx *tensor.Tensor, grads GradDst) {
	n := dy.Dim(0)
	hb := tensor.GetUninit(b.ex.BwdBands()*n, b.ex.HiddenWidth())
	b.pass.BeginBackward(dy, dx, hb, grads)
	b.pass.BackwardHidden(tensor.Window(0, n))
	b.pass.BackwardIn(tensor.Window(0, n))
	b.pass.Finish()
	tensor.Put(hb)
	tensor.Put(b.mem)
}

// Forward runs the layer on x, shaped (B, L, M) or (N, M). train enables
// training-only gate behaviour.
func (l *MOELayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, *LayerCache, error) {
	pr, err := l.prolog(x, train)
	if err != nil {
		return nil, nil, err
	}
	plan, shape := pr.plan, pr.shape
	scattered := tensor.New(plan.Experts, plan.Capacity, l.cfg.M)
	l.cfg.Order.Scatter(scattered, pr.flat, plan)
	dispatched := l.hooks.afterDispatch(l.hooks.beforeDispatch(scattered))

	// Experts run concurrently on the shared worker pool, each reading and
	// writing its own (T, M) block of the (E, T, M) buffers through
	// zero-copy views. Blocks are disjoint and each expert's GEMMs
	// accumulate in a fixed order, so the result is bit-identical to the
	// sequential loop.
	expertOut := tensor.New(plan.Experts, plan.Capacity, l.cfg.M)
	passes := make([]*blockPass, plan.Experts)
	blk := plan.Capacity * l.cfg.M
	l.forEachExpert(func(e int) {
		passes[e] = forwardBlock(l.cfg.Experts[e],
			dispatched.View(e*blk, plan.Capacity, l.cfg.M), expertOut.View(e*blk, plan.Capacity, l.cfg.M))
	})

	combined := l.hooks.afterCombine(l.hooks.beforeCombine(expertOut))

	y := l.epilog(tensor.New(pr.flat.Dim(0), l.cfg.M), combined, plan, shape)

	cache := &LayerCache{
		shape:     shape,
		x:         pr.flat,
		routeC:    pr.rc,
		plan:      plan,
		expertOut: combined,
		passes:    passes,
	}
	return y, cache, nil
}

// Backward propagates dy (same shape as the forward output) through the
// layer, accumulating gradients into every gate and expert parameter, and
// returns the gradient with respect to the input.
//
// The routing path is differentiated exactly: the combine-weight gradients
// flow into the gate (softmax/sigmoid/cosine jacobians), and the data path
// flows through I-order → experts → order. Hard top-k selection itself is
// piecewise constant, so its "gradient" is zero almost everywhere, exactly
// as in the PyTorch implementations the paper builds on.
func (l *MOELayer) Backward(cache *LayerCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	plan := cache.plan
	// Through Gather (I-Order): gradient of expert outputs and of the
	// combine weights.
	dExpertOut := tensor.New(plan.Experts, plan.Capacity, l.cfg.M)
	planGrad, err := l.backwardProlog(dExpertOut, cache.expertOut, plan, dy)
	if err != nil {
		return nil, err
	}

	// Through each expert, concurrently; every expert accumulates only its
	// own parameter gradients and writes its own block of dDispatched, so
	// the shards never race.
	dDispatched := tensor.New(plan.Experts, plan.Capacity, l.cfg.M)
	blk := plan.Capacity * l.cfg.M
	l.forEachExpert(func(e int) {
		cache.passes[e].backward(dExpertOut.View(e*blk, plan.Capacity, l.cfg.M), dDispatched.View(e*blk, plan.Capacity, l.cfg.M), nil)
	})

	n := cache.x.Dim(0)
	gateDx := tensor.GetUninit(n, l.cfg.M)
	dx := l.backwardFinish(tensor.New(n, l.cfg.M), gateDx, dDispatched, planGrad, cache.x, cache.routeC, plan, cache.shape)
	tensor.Put(gateDx)
	return dx, nil
}

// backwardProlog is the shared entry of every backward pass: flatten dy
// and differentiate through Gather (I-Order) into dOut, shaped like
// expertOut.
func (l *MOELayer) backwardProlog(dOut, expertOut *tensor.Tensor, plan *DispatchPlan, dy *tensor.Tensor) (*PlanGrad, error) {
	var dflat *tensor.Tensor
	switch dy.Rank() {
	case 2:
		dflat = dy
	case 3:
		dflat = dy.Reshape(dy.Dim(0)*dy.Dim(1), dy.Dim(2))
	default:
		return nil, fmt.Errorf("moe: dy must be (B,L,M) or (N,M), got %v", dy.Shape())
	}
	return l.cfg.Order.GatherGrad(dOut, dflat, expertOut, plan), nil
}

// backwardFinish is the shared exit of every backward pass: differentiate
// through Scatter (Order) from dScattered (E, S, M) back to tokens in dx
// (N, M), feed the routing gradients to the gate — whose own contribution
// to dx goes through gateDx (N, M), scratch — and restore the caller's
// shape.
func (l *MOELayer) backwardFinish(dx, gateDx, dScattered *tensor.Tensor, planGrad *PlanGrad, x *tensor.Tensor, rc *RouteCache, plan *DispatchPlan, shape []int) *tensor.Tensor {
	l.cfg.Order.ScatterGrad(dx, dScattered, plan)

	// Dense plans additionally need the dispatch-weight gradient
	// dD = dScattered_flat · xᵀ for the gate's backward: rows are slots, so
	// one row-wise GEMM per expert block.
	if plan.IsDense() {
		t := plan.Capacity
		planGrad.DispatchW = tensor.New(plan.Slots(), x.Dim(0))
		for e := 0; e < plan.Experts; e++ {
			tensor.MatMulT2Into(planGrad.DispatchW.Slice(e*t, (e+1)*t), slotBlock(dScattered, e, t), x)
		}
	}

	// Routing path into the gate.
	l.cfg.Gate.Backward(gateDx, rc, planGrad)
	tensor.AddInPlace(dx, gateDx)

	if len(shape) == 3 {
		dx = dx.Reshape(shape...)
	}
	return dx
}
