package moe

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/runtime"
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
// and a cache, Backward consumes the cache and the output gradient. Both run
// the layer's own one-rank World (world): every pass, the layer's or a
// multi-rank World's, runs the one plan builder and executor.
type MOELayer struct {
	cfg   LayerConfig
	hooks hookChain
	w     *World // the layer's own one-rank World; nil until the first Forward

	// scratch is the gate as a scratchGate, nil for a gate without routing
	// scratch: resolved once, since a dynamic interface assertion on every
	// pass now and then grows its call site's cache on the heap.
	scratch scratchGate

	// commit is the checkpoint manager whose commit a step last started
	// over the layer's parameters. The commit reads them until it
	// completes, so whatever writes them outside a step, through any World
	// over the layer, waits for it first (waitCommit); the World's Close
	// drains it.
	commit *ckpt.Manager
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
	if !distinctExperts(cfg.Experts) {
		return nil, fmt.Errorf("moe: layer requires provably distinct expert instances (aliased experts cannot be sharded)")
	}
	sg, _ := cfg.Gate.(scratchGate)
	return &MOELayer{cfg: cfg, hooks: hookChain(cfg.Hooks), scratch: sg}, nil
}

// distinctExperts reports whether every expert is a provably distinct
// instance. Experts of non-comparable dynamic types cannot be told apart,
// so they count as possibly aliased, as does the same instance registered
// at several indices (e.g. for weight tying): no World can shard them or run
// them at once, so NewMOELayer refuses them.
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

// world returns the layer's own World, built on first use: one rank at
// pipeline degree 1 on a one-worker set, which starts no goroutine, and the
// default kernel pool, so it needs no Close. It is plain g = 1, and with
// every expert on its one rank, one compute task fans them out over the
// default pool.
func (l *MOELayer) world() *World {
	if l.w == nil {
		cfg := WorldConfig{Ranks: 1, PipelineDegree: 1, PipelineDegreeBwd: 1, Algo: comm.A2ADirect, GPUsPerNode: 1, Strategy: StrategyEP}
		w := &World{layer: l, cfg: cfg, egrp: len(l.cfg.Experts), g: 1, down: -1,
			exec: runtime.NewWorkerSet(1)}
		w.nameStreams()
		l.w = w
	}
	return l.w
}

// Forward runs the layer on x, shaped (B, L, M) or (N, M). train enables
// training-only gate behaviour. The output is the caller's. The cache holds
// the layer's workspace and the gate's routing scratch until its Backward
// returns or Release hands them back.
func (l *MOELayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, *WorldCache, error) {
	return l.world().Forward(x, train)
}

// ErrCacheReleased reports a Backward over a cache that is no longer live:
// one Release handed back, or one an earlier Backward already consumed.
// Match it with errors.Is.
var ErrCacheReleased = errors.New("moe: forward cache released")

// Release ends a forward that will not be backwarded — an eval or inference
// call: it hands the cache's workspace back to the layer and its routing
// scratch back to the gate, so the next Forward replays the layer's resident
// forward plan in the same memory. The output that Forward returned stays
// the caller's; the cache, its plan and its RouteCache are dead, and a
// Backward over the cache fails with ErrCacheReleased. Releasing a cache
// twice, or one a Backward consumed, does nothing.
func (l *MOELayer) Release(cache *WorldCache) {
	if cache != nil && cache.combined != nil {
		l.world().drop(cache)
	}
}

// Backward propagates dy (same shape as the forward output) through the
// layer, accumulating gradients into every gate and expert parameter, and
// returns the gradient with respect to the input.
//
// The routing path is differentiated exactly: the combine-weight gradients
// flow into the gate (softmax/sigmoid/cosine jacobians), and the data path
// flows through I-order → experts → order. Hard top-k selection itself is
// piecewise constant, so its "gradient" is zero almost everywhere, exactly
// as in the PyTorch implementations the paper builds on. The hooks are
// forward-only: the backward runs straight through them.
func (l *MOELayer) Backward(cache *WorldCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	return l.world().Backward(cache, dy)
}

// Gate returns the layer's gate.
func (l *MOELayer) Gate() Gate { return l.cfg.Gate }

// Params returns all trainable parameters (gate + experts).
func (l *MOELayer) Params() []*Param {
	out := append([]*Param(nil), l.cfg.Gate.Params()...)
	for _, e := range l.cfg.Experts {
		out = append(out, e.Params()...)
	}
	return out
}

// ZeroGrad clears every parameter gradient.
func (l *MOELayer) ZeroGrad() { zeroGrads(l.Params()) }

// forwardProlog is the routing stage every forward pass runs exactly once
// before any dispatch chunk moves (§4.1's "gate and order, then pipeline");
// the World then has Order scatter the tokens into the expert-major buffer
// it owns, or, with a sparse plan at R > 1 and no dispatch hooks,
// dispatches them straight from flat through the plan.
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
	flat = l.hooks.apply(flat, beforeMoeStart)
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
	return restoreShape(l.hooks.apply(y, beforeMoeEnd), shape)
}

// backwardProlog is the shared entry of every backward pass: flatten dy
// and differentiate through Gather (I-Order) into dOut, shaped like
// expertOut. A nil dOut — a World's sparse plan at R > 1, whose collectives
// read w·dy through the plan — leaves only the slot-weight gradient.
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
	if dOut == nil {
		return plan.slotWeightGrad(dflat, expertOut), nil
	}
	return l.cfg.Order.GatherGrad(dOut, dflat, expertOut, plan), nil
}

// scatterAdjoint differentiates through Scatter (Order) from dScattered
// (E, S, M) back to tokens in dx (N, M) and, for a dense plan, computes the
// dispatch-weight gradient the gate's backward reads. Every backward pass
// runs it, and the gate's backward, whose dx contribution is then added.
func (l *MOELayer) scatterAdjoint(dx, dScattered, x *tensor.Tensor, plan *DispatchPlan, planGrad *PlanGrad) {
	l.cfg.Order.ScatterGrad(dx, dScattered, plan)

	// Dense plans additionally need the dispatch-weight gradient
	// dD = dScattered_flat · xᵀ for the gate's backward: rows are slots, so
	// one row-wise GEMM per expert block.
	if plan.IsDense() {
		t := plan.Capacity
		planGrad.DispatchW = plan.denseGrad(x.Dim(0)).DispatchW
		for e := 0; e < plan.Experts; e++ {
			tensor.MatMulT2Into(planGrad.DispatchW.Slice(e*t, (e+1)*t), slotBlock(dScattered, e, t), x)
		}
	}
}

// restoreShape gives a token-major (N, M) result the caller's (B, L, M)
// shape when that is what it passed.
func restoreShape(t *tensor.Tensor, shape []int) *tensor.Tensor {
	if len(shape) == 3 {
		return t.Reshape(shape...)
	}
	return t
}
