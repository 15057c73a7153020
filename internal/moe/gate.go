package moe

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// Param is one trainable weight with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape()...)}
}

// RouteCache carries what a gate needs to run its backward pass.
type RouteCache struct {
	X     *tensor.Tensor // (N, M) gate input
	Plan  *DispatchPlan
	extra any // gate-specific intermediates
}

// PlanGrad is the gradient of the loss with respect to a plan's routing
// weights, produced by the layer's backward pass and consumed by
// Gate.Backward.
type PlanGrad struct {
	// SlotWeight[e][s] gradient for hard plans.
	SlotWeight [][]float64
	// Dense gradients for SoftMoE plans.
	DispatchW *tensor.Tensor // (E*T, N)
	CombineW  *tensor.Tensor // (N, E*T)
}

// Gate is the routing sub-module of §3.1. Implementations must be
// deterministic given their RNG state so experiments reproduce.
type Gate interface {
	// Name identifies the gating function ("gshard", "xmoe", ...).
	Name() string
	// Route assigns the N tokens of x (N, M) to experts. train enables
	// training-only behaviour (GShard's noisy gating). The plan and the
	// cache may live in the gate's own memory — the built-in gates' do
	// (routing) — which a later Route may reuse once the cache's Backward
	// has returned: the plan is valid until the next Route after that.
	Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error)
	// Backward accumulates parameter gradients from the routing-weight
	// gradient and writes the gradient contribution to x into dx (N, M),
	// overwriting whatever it held. It may be called at most once per
	// RouteCache.
	Backward(dx *tensor.Tensor, cache *RouteCache, grad *PlanGrad)
	// Params exposes the gate's trainable parameters.
	Params() []*Param
}

// GateConfig carries the routing hyperparameters shared by all gates.
type GateConfig struct {
	Experts int     // E
	TopK    int     // k experts per token (token-choice gates)
	Factor  float64 // capacity factor f; <= 0 means f=∗ (no dropping)
}

// Validate reports configuration errors.
func (c GateConfig) Validate() error {
	if c.Experts <= 0 {
		return fmt.Errorf("moe: gate needs at least one expert, got %d", c.Experts)
	}
	if c.TopK <= 0 || c.TopK > c.Experts {
		return fmt.Errorf("moe: top-k %d invalid for %d experts", c.TopK, c.Experts)
	}
	return nil
}

// routing is a gate's routing scratch: everything one Route produces and
// its Backward reads — the RouteCache itself, the plan with its slot tables
// (and, kept by the plan, its reverse index and weight gradient), the
// token-choice gates' per-token selections, and the score matrices the gate
// names in its own cache type, which embeds routing. Route takes the gate's
// idle one — or makes another while an earlier RouteCache still holds it —
// and Backward, called at most once per RouteCache, hands it back, so a
// training loop routes every step in the same memory. The plan and the
// RouteCache a Route returns are therefore the gate's: valid until the next
// Route after their Backward (a forward-only pass keeps them for good).
// What only a Backward needs — its gradient matrices — it takes from
// tensor.Get and Puts back before it returns, so routing holds nothing a
// Backward alone reads.
//
// Scratch is handed out dirty, like a workspace slot: Route overwrites
// every table and matrix it fills, and under poisonWorkspaces every float
// it holds comes back NaN and every table entry out of range, so a read of
// the previous step's routing fails the bit-identity suites.
type routing struct {
	rc   RouteCache
	plan DispatchPlan
	tok  []int     // plan.SlotToken's rows, flat
	wt   []float64 // plan.SlotWeight's rows, flat
	next []int     // per-expert slot cursor while packing
	sel  choices
}

// scratchGate is a gate that keeps routing scratch (routing) and can take
// back a RouteCache's without its Backward: a failed training step drops
// its forward caches, whose backward never runs (StepWorlds).
type scratchGate interface{ reclaim(rc *RouteCache) }

// choices is the per-token top-k selection of a token-choice gate (GShard,
// Sigmoid, X-MoE), flat with stride k: token t's j-th choice is entry t·k+j.
type choices struct {
	k   int
	idx []int     // selected expert ids, by descending score
	w   []float64 // their combine weights
	dw  []float64 // Backward: the gradient of w
	asg []assignment
}

// begin readies r for a Route of x whose cache, extra, embeds r.
func (r *routing) begin(x *tensor.Tensor, extra any) {
	r.rc = RouteCache{X: x, Plan: &r.plan, extra: extra}
	if poisonWorkspaces.Load() {
		r.poison()
	}
}

// poison fills r's memory with NaN and out-of-range indices.
func (r *routing) poison() {
	for _, f := range [][]float64{r.wt, r.sel.w, r.sel.dw, r.plan.gradMem} {
		poisonFloats(f)
	}
	for _, t := range []*tensor.Tensor{r.plan.grad.CombineW, r.plan.grad.DispatchW} {
		if t != nil {
			poisonFloats(t.Data())
		}
	}
	for _, n := range [][]int{r.tok, r.next, r.sel.idx, r.plan.rev.off} {
		for i := range n {
			n[i] = math.MinInt
		}
	}
}

// scratchMat returns *t as a (rows, cols) matrix of a Route's routing
// scratch — *t itself when it already has that shape, a new one otherwise —
// poisoned under poisonWorkspaces.
func scratchMat(t **tensor.Tensor, rows, cols int) *tensor.Tensor {
	*t = reuseMat(*t, rows, cols)
	if poisonWorkspaces.Load() {
		poisonFloats((*t).Data())
	}
	return *t
}

// reuseMat returns t when it is a (rows, cols) matrix, a new one otherwise:
// kept memory, handed out dirty.
func reuseMat(t *tensor.Tensor, rows, cols int) *tensor.Tensor {
	if t != nil && t.Dim(0) == rows && t.Dim(1) == cols {
		return t
	}
	return tensor.New(rows, cols)
}

// grow returns s resliced to n elements, reallocated when its capacity is
// short: kept memory, handed out dirty.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// routeTopK is the routing loop the token-choice gates share: each token's
// top-k of its row of scores (N, E), turned into combine weights by weigh
// (in place, on the k selected scores) and packed into r's plan under the
// gate's capacity.
func (r *routing) routeTopK(cfg GateConfig, scores *tensor.Tensor, weigh func(w []float64)) *DispatchPlan {
	n, k := scores.Dim(0), cfg.TopK
	c := &r.sel
	c.k, c.idx, c.w, c.dw, c.asg = k, grow(c.idx, n*k), grow(c.w, n*k), grow(c.dw, n*k), slices.Grow(c.asg[:0], n*k)
	for t := 0; t < n; t++ {
		row := scores.Row(t)
		sel, w := c.idx[t*k:(t+1)*k], c.w[t*k:(t+1)*k]
		tensor.TopKInto(sel, row)
		for j, e := range sel {
			w[j] = row[e]
		}
		weigh(w)
		for j, e := range sel {
			c.asg = append(c.asg, assignment{token: t, expert: e, weight: w[j], choice: j})
		}
	}
	return r.pack(cfg.Experts, CapacityFor(n, cfg.Experts, k, cfg.Factor), c.asg)
}

// weightGrads reorganizes per-slot weight gradients into the per-token,
// per-selected-choice layout gates compute jacobians in: token t's are
// dw[t·k:(t+1)·k]. Assignments that were dropped (never given a slot) get
// zero gradient.
func (c *choices) weightGrads(plan *DispatchPlan, slotGrad [][]float64) []float64 {
	clear(c.dw)
	if slotGrad == nil {
		return c.dw
	}
	// Walk slots; for each occupied slot find which choice of the token it
	// satisfies (the first selected expert matching the slot's expert).
	// Token-order packing guarantees one slot per (token, expert) pair.
	for e := range plan.SlotToken {
		for s, tok := range plan.SlotToken[e] {
			if tok < 0 {
				continue
			}
			for j, idx := range c.idx[tok*c.k : (tok+1)*c.k] {
				if idx == e {
					c.dw[tok*c.k+j] = slotGrad[e][s]
					break
				}
			}
		}
	}
	return c.dw
}

// maskedSoftmaxBackward computes, for one token, the gradient of the
// masked softmax (softmax restricted to the selected index set) given the
// gradient of the softmax outputs: w holds the softmax outputs at the
// selected indices and dw their gradients, which it overwrites with the
// gradient at each selected logit.
func maskedSoftmaxBackward(w, dw []float64) {
	// dlogit_i = w_i * (dw_i - sum_j dw_j w_j)
	dot := 0.0
	for j := range w {
		dot += dw[j] * w[j]
	}
	for i := range w {
		dw[i] = w[i] * (dw[i] - dot)
	}
}

// zeroGrads clears the gradient accumulators of params.
func zeroGrads(params []*Param) {
	for _, p := range params {
		p.G.Zero()
	}
}

// checkGateInput validates the gate input shape.
func checkGateInput(x *tensor.Tensor, m int) error {
	if x.Rank() != 2 {
		return fmt.Errorf("moe: gate input must be (tokens, M), got %v", x.Shape())
	}
	if x.Dim(1) != m {
		return fmt.Errorf("moe: gate input embedding %d, want %d", x.Dim(1), m)
	}
	return nil
}
