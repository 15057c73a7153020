package moe

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/tensor"
)

// workspace is a world's resident token-path memory: every buffer a pass
// moves tokens through — the padded expert-major buffers Order scatters
// into and gathers from, the per-rank expert blocks and hidden exchange
// buffers, the token-major products on a stack's inner edges — is a slot of
// it, handed out in the order the pass asks. A pass over the same shape asks
// for the same sizes in the same order, so a warm pass replays the slots of
// the one before it and allocates none — and finds the plan builder's
// endpoint lists over them (fwd, bwd) already cut.
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

	fwd, bwd *passBufs // each direction's per-rank buffers and endpoint lists (strategy_plan.go)
}

// wsShape is everything that decides which slots a pass asks for.
type wsShape struct {
	strategy                        Strategy
	ranks, group, experts, capacity int
	m, chunksFwd, chunksBwd         int
}

type wsSlot struct {
	data []float64
	t    *tensor.Tensor // data under the shape last asked for; nil until asked
}

// poisonWorkspaces makes every slot come back filled with NaN, so a test
// run fails on any read of workspace memory the pass did not write first.
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
		nan := math.NaN()
		for i := range s.data {
			s.data[i] = nan
		}
	}
	return s
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
// when its only reader is the neighbouring world of a stack (inner), a
// tensor the caller keeps otherwise.
func (ws *workspace) tokens(inner bool, n, m int) *tensor.Tensor {
	if inner {
		return ws.tensor(n, m)
	}
	return tensor.New(n, m)
}

// blocks returns one tensor slot of the given shape per rank.
func (ws *workspace) blocks(ranks int, shape ...int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, ranks)
	for r := range out {
		out[r] = ws.tensor(shape...)
	}
	return out
}

// checkout takes the world's workspace for a pass at the given capacity:
// the idle one rewound when it was cut for this shape, an empty one
// otherwise.
func (w *World) checkout(capacity int) *workspace {
	shape := wsShape{
		strategy: w.cfg.Strategy, ranks: w.cfg.Ranks, group: w.cfg.GroupSize,
		experts: len(w.layer.cfg.Experts), capacity: capacity, m: w.layer.cfg.M,
		chunksFwd: w.cfg.ChunksFwd, chunksBwd: w.cfg.ChunksBwd,
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
// workspace back to the world.
func (w *World) release(cache *WorldCache) {
	cache.combined = nil
	if cache.ws != nil {
		w.ws, cache.ws = cache.ws, nil
	}
}
