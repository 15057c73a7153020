package moe

import (
	"math"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/tensor"
)

// workspace is a world's resident token-path memory: every buffer a pass
// moves tokens through — the padded expert-major buffers the experts' outputs
// and input gradients land in (and, for R = 1 or a dense plan, the ones Order
// scatters into), the per-rank expert blocks and hidden exchange buffers, the
// token-major products on a stack's edges, the step's output and input
// gradient included — is a slot of it, handed out in the order the pass
// asks. A pass over the same shape asks for the same sizes in the same
// order, so a warm pass replays the slots of the one before it and allocates
// none — and finds the plan builder's endpoint lists over them (fwd, bwd)
// already cut.
//
// Ownership: Forward checks the world's idle workspace out into the
// WorldCache it returns; that cache's Backward takes the backward buffers
// from the same workspace and hands it back. A Forward that finds no idle
// workspace (the previous cache is still outstanding) or one cut for
// another shape starts an empty one, so memory a live cache points at is
// never handed out twice.
//
// Slots are handed out dirty — whatever the previous pass left in them —
// and no consumer relies on cleared memory: Order's methods overwrite a slot
// whole, pad rows and empty slots included, and everything downstream reads
// only rows a collective or an expert stage of the same pass wrote (a
// member's block keeps dirty rows where its group computes nothing; no
// endpoint list names them).
type workspace struct {
	shape wsShape
	slots []wsSlot
	next  int

	fwd, bwd *passBufs // each direction's per-rank buffers, endpoint lists and plan (strategy_plan.go)

	// The per-pass state the resident plans read through holders: the
	// expert passes, [rank][expert of its group], begun when the forward's
	// buffers are cut (cutPass), re-armed by every forward and continued by
	// its backward, and the backward's routing-path operands.
	passes [][]ExpertPass
	route  routeState

	// A sparse plan's padded slot index, E × Tpad (SlotToken, −1 in pad
	// rows), and slot weights (SlotWeight, +0 in pad rows): each pass
	// refreshes them (slotRows), and the token side of its collectives
	// gathers x's rows, or w·dy's, through them.
	slotIdx   []int
	slotScale []float64

	// The router's fill, refreshed by each forward (setFill): fill[e] is the
	// rows of expert e's block its pass computes, and shardFill[e·R+i] the
	// filled rows of token-side rank i's shard of it, which the endpoint
	// lists' blocks point at. Their length is the workspace shape's.
	fill, shardFill []int
}

// wsShape is everything that decides which slots a pass asks for, and so
// everything a forward plan over them depends on: the group width g stands
// for the strategy.
type wsShape struct {
	ranks, g, experts, capacity int
	m, chunksFwd, chunksBwd     int
}

type wsSlot struct {
	data []float64
	t    *tensor.Tensor // data under the shape last asked for; nil until asked
}

// poisonWorkspaces makes every slot, and the gates' routing scratch
// (routing, gate.go), come back filled with NaN, so a test run fails on any
// read of workspace or routing memory the pass did not write first.
var poisonWorkspaces atomic.Bool

func (ws *workspace) take(n int) *wsSlot {
	if ws.next == len(ws.slots) {
		ws.slots = append(ws.slots, wsSlot{})
	}
	s := &ws.slots[ws.next]
	ws.next++
	if len(s.data) != n {
		*s = wsSlot{data: make([]float64, n)}
	}
	if poisonWorkspaces.Load() {
		poisonFloats(s.data)
	}
	return s
}

// poisonFloats fills s with NaN.
func poisonFloats(s []float64) {
	nan := math.NaN()
	for i := range s {
		s[i] = nan
	}
}

// retake hands out again, as they are, the slots from the next one up to
// slot to: buffers whose views the caller kept from the pass that cut them.
func (ws *workspace) retake(to int) {
	for ws.next < to {
		ws.take(len(ws.slots[ws.next].data))
	}
}

// tensor returns the next slot as a tensor of the given shape.
func (ws *workspace) tensor(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	s := ws.take(n)
	if s.t == nil || !slices.Equal(s.t.Shape(), shape) {
		s.t = tensor.FromData(s.data, shape...)
	}
	return s.t
}

// tokens returns an (n, m) token-major product of a pass: the next slot
// when the product is stack-owned (owned) — an edge of a StepWorlds stack,
// its output and input gradient included, read at the latest by the caller
// before the next step — a tensor the caller keeps otherwise.
func (ws *workspace) tokens(owned bool, n, m int) *tensor.Tensor {
	if owned {
		return ws.tensor(n, m)
	}
	return tensor.New(n, m)
}

// holds reports whether t shares memory with a slot: the next pass over
// this workspace would overwrite what t reads.
func (ws *workspace) holds(t *tensor.Tensor) bool {
	for _, s := range ws.slots {
		if overlaps(s.data, t.Data()) {
			return true
		}
	}
	return false
}

// overlaps reports whether a and b share memory.
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b))*8 && pb < pa+uintptr(len(a))*8
}

// blocks returns one tensor slot of the given shape per rank.
func (ws *workspace) blocks(ranks int, shape ...int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, ranks)
	for r := range out {
		out[r] = ws.tensor(shape...)
	}
	return out
}

// expertPasses returns the workspace's holder of expert passes, ranks rows
// of per experts each.
func (ws *workspace) expertPasses(ranks, per int) [][]ExpertPass {
	if len(ws.passes) != ranks || len(ws.passes[0]) != per {
		ws.passes = make([][]ExpertPass, ranks)
		for j := range ws.passes {
			ws.passes[j] = make([]ExpertPass, per)
		}
	}
	return ws.passes
}

// slotRows refreshes the padded slot index — and, with weights, the slot
// weights — from a sparse plan at block stride tpad, and returns them as a
// pass's token side. Their length is the workspace shape's, so only a new
// workspace allocates them.
func (ws *workspace) slotRows(plan *DispatchPlan, tpad int, weights bool) tokenRows {
	if n := plan.Experts * tpad; len(ws.slotIdx) != n {
		ws.slotIdx, ws.slotScale = make([]int, n), make([]float64, n)
	}
	t := plan.Capacity
	for e := 0; e < plan.Experts; e++ {
		idx := ws.slotIdx[e*tpad : (e+1)*tpad]
		copy(idx, plan.SlotToken[e])
		for s := t; s < tpad; s++ {
			idx[s] = -1
		}
		if weights {
			sc := ws.slotScale[e*tpad : (e+1)*tpad]
			clear(sc[copy(sc, plan.SlotWeight[e]):])
		}
	}
	src := tokenRows{index: ws.slotIdx}
	if weights {
		src.scale = ws.slotScale
	}
	return src
}

// setFill refreshes the router fill from plan, for a layout of ranks shards
// of spad rows per block: each expert's rows up to its last occupied slot
// (DispatchPlan.fill), or, where hooks act on the expert-major buffers,
// every row, so a hook sees the whole block computed. The rows past the fill
// hold no token: no collective moves them and no stage computes them, and
// they keep whatever the workspace held.
func (ws *workspace) setFill(plan *DispatchPlan, ranks, spad int, hooked bool) {
	if len(ws.fill) != plan.Experts {
		ws.fill, ws.shardFill = make([]int, plan.Experts), make([]int, plan.Experts*ranks)
	}
	for e := range ws.fill {
		f := spad * ranks
		if !hooked {
			f = plan.fill(e)
		}
		ws.fill[e] = f
		for i := range ranks {
			ws.shardFill[e*ranks+i] = min(max(f-i*spad, 0), spad)
		}
	}
}

// checkout takes the world's workspace for a pass at the given capacity:
// the idle one rewound when it was cut for this shape, an empty one
// otherwise.
func (w *World) checkout(capacity int) *workspace {
	shape := wsShape{
		ranks: w.cfg.Ranks, g: w.g, experts: len(w.layer.cfg.Experts), capacity: capacity, m: w.layer.cfg.M,
		chunksFwd: w.cfg.PipelineDegree, chunksBwd: w.cfg.PipelineDegreeBwd,
	}
	ws := w.ws
	w.ws = nil
	if ws == nil || ws.shape != shape {
		ws = &workspace{shape: shape}
	}
	ws.next = 0
	return ws
}

// release retires a cache — it drives at most one backward — and hands its
// workspace back to the World it came from: a degraded cache's to the
// layer's own.
func (w *World) release(cache *WorldCache) {
	if cache.deg != nil {
		w = w.layer.world()
	}
	cache.combined = nil
	if cache.ws != nil {
		w.ws, cache.ws = cache.ws, nil
	}
}

// drop retires a cache a failed pass or step leaves behind, whose backward
// never ran or did not complete: every task has drained and nothing reads
// the aborted pass again, so the workspace goes back to the world and, where
// the gate keeps routing scratch, the routing back to the gate — the next
// pass reuses both.
func (w *World) drop(cache *WorldCache) {
	w.release(cache)
	if g := w.layer.scratch; g != nil {
		g.reclaim(cache.pr.rc)
	}
}
