package moe

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/tensor"
)

// Degraded-mode stepping: a permanent rank-down event mid-plan does not
// abort training. The world marks the rank dead and completes the pass
// degraded: on the layer's own one-rank World (MOELayer.world), through the
// same plan builder and executor as every other pass, with all E experts in
// place and the dead rank's holding no occupied slot (survivorPlan). An
// expert with no filled row moves and multiplies nothing, and its finish
// routine puts a +0 gradient.
//
//   - Forward-time failure: the dead rank's experts can no longer run, so
//     every token they held is re-routed into surviving experts' free
//     capacity slots (keeping its original combine weight — the degraded
//     approximation); tokens with nowhere to go are dropped like
//     over-capacity tokens in §2.1. The forward runs again from the prolog
//     under the re-routed plan.
//
//   - Backward-time failure: the forward already completed at full
//     strength, so the routing is kept and the dead experts' tokens are
//     dropped — their gradient contribution is lost. The degraded forward
//     runs again from the prolog to arm the passes its backward continues.
//     The aborted plan may have partially accumulated parameter gradients,
//     so the layer's gradients are zeroed first (during a training step
//     Param.G is the layer's span of the stack's gradient buffer, which the
//     degraded pass's finish routines then overwrite for every expert, the
//     dead ones' with +0; the §5 slices step the parameters from it).
//
// In both modes the router is frozen (call.frozen): the gate backward pairs
// its RouteCache with the original plan, which no longer describes the
// executed routing, so the gate runs no backward, adds a +0 input gradient
// and has its routing handed back unread. Dead experts accumulate no
// gradient, so an optimizer step leaves them untouched and a later
// ResetHealth resumes from consistent weights. Dense (SoftMoE) plans spread
// every token over every expert and have no per-token fallback: a rank lost
// on a dense pass fails it, under every strategy, with the permanent fault
// (fault.PermanentRank names the rank), and the world reports it down.

// DegradedResult reports how a degraded pass completed.
type DegradedResult struct {
	Rank        int    // the permanently failed rank
	Phase       string // "forward" or "backward": where the failure hit
	LostExperts []int  // global expert indices owned by the dead rank

	// ReroutedTokens counts slot assignments moved into surviving
	// experts' free capacity (forward-time failures only); DroppedTokens
	// counts assignments lost outright — no free capacity, or a
	// backward-time failure dropping the dead experts' gradient slots.
	ReroutedTokens int
	DroppedTokens  int

	// Retries is how many transient-fault retries the aborted plan spent
	// before the permanent failure; RecoveryMS is the time the degraded
	// passes added on top of the aborted plan — the tail inflation of
	// surviving the fault.
	Retries    int
	RecoveryMS float64
	Cause      string
}

// lostRange returns the dead rank's owned expert range.
func (w *World) lostRange() (lo, hi int) { return w.down * w.egrp, (w.down + 1) * w.egrp }

func lostList(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for e := lo; e < hi; e++ {
		out = append(out, e)
	}
	return out
}

// degradedForward runs the forward of a pass that lost rank w.down in phase
// ("forward" or "backward") on the layer's own World, from the prolog pr of
// the aborted (or, with the rank already down, never built) plan: at a
// forward-time loss the dead rank's tokens move to free surviving slots, at
// a backward-time loss they are dropped. c is forward's, and cause the
// permanent fault that aborted the pass, nil when the rank was already down.
func (w *World) degradedForward(pr *forwardProlog, c call, phase string, retries int, cause error) (*tensor.Tensor, *WorldCache, error) {
	if pr.plan.IsDense() {
		if cause == nil {
			cause = fault.NewPermanent(w.down, phase, "rank still down")
		}
		return nil, nil, fmt.Errorf("moe: degraded mode needs hard routing; dense plans have no per-token fallback: %w", cause)
	}
	var why string
	if cause != nil {
		why = cause.Error()
	} else {
		why = fmt.Sprintf("rank %d still down", w.down)
	}
	t0 := time.Now()
	lo, hi := w.lostRange()
	plan, rerouted, dropped := survivorPlan(pr.plan, lo, hi, phase == "forward")
	y, cache, err := w.layer.world().pass(&forwardProlog{shape: pr.shape, flat: pr.flat, plan: plan, rc: pr.rc}, c)
	if err != nil {
		return nil, nil, err
	}
	cache.deg = &DegradedResult{
		Rank:           w.down,
		Phase:          phase,
		LostExperts:    lostList(lo, hi),
		ReroutedTokens: rerouted,
		DroppedTokens:  dropped,
		Retries:        retries,
		RecoveryMS:     time.Since(t0).Seconds() * 1e3,
		Cause:          why,
	}
	w.degraded = cache.deg
	return y, cache, nil
}

// degradedBackward runs the backward paired with a degraded forward cache
// on the layer's own World, under the call c with the router frozen and no
// §5 slices: during a training step every expert's finish routine writes
// its Param.G, the dead ones' +0.
func (w *World) degradedBackward(cache *WorldCache, dy *tensor.Tensor, c call) (*tensor.Tensor, error) {
	t0 := time.Now()
	lw := w.layer.world()
	c.frozen, c.sched = true, nil
	dx, err := lw.backPass(cache, dy, c)
	if err != nil {
		return nil, err
	}
	lw.drop(cache) // the frozen router's routing goes back unread
	cache.deg.RecoveryMS += time.Since(t0).Seconds() * 1e3
	w.degraded = cache.deg
	return dx, nil
}

// survivorPlan is the plan of a pass without experts [lo, hi): every
// expert's slot table in place, in one flat block as a gate's routing keeps
// them, the lost experts' emptied and their occupied slots either dropped
// or, with reroute, moved into the survivors' free capacity — a
// deterministic cyclic scan over the experts with a rotating start spreads
// the refugees round-robin, and per-expert scan positions keep the whole
// pass O(slots). Tokens keep their original combine weights; refugees with
// no free slot anywhere are dropped.
func survivorPlan(plan *DispatchPlan, lo, hi int, reroute bool) (np *DispatchPlan, rerouted, dropped int) {
	e, t := plan.Experts, plan.Capacity
	np = &DispatchPlan{Experts: e, Capacity: t, Dropped: plan.Dropped, AuxLoss: plan.AuxLoss,
		SlotToken: make([][]int, e), SlotWeight: make([][]float64, e)}
	toks, wts := make([]int, e*t), make([]float64, e*t)
	next := make([]int, e) // per-expert free-slot scan position; the lost experts' start full
	for ex := range e {
		np.SlotToken[ex], np.SlotWeight[ex] = toks[ex*t:(ex+1)*t:(ex+1)*t], wts[ex*t:(ex+1)*t:(ex+1)*t]
		copy(np.SlotToken[ex], plan.SlotToken[ex])
		copy(np.SlotWeight[ex], plan.SlotWeight[ex])
		if ex >= lo && ex < hi {
			next[ex] = t
		}
	}
	cursor := hi % e
	for ex := lo; ex < hi; ex++ {
		for s, tok := range plan.SlotToken[ex] {
			np.SlotToken[ex][s], np.SlotWeight[ex][s] = -1, 0
			if tok < 0 {
				continue
			}
			placed := false
			for probe := 0; reroute && !placed && probe < e; probe++ {
				j := (cursor + probe) % e
				for next[j] < t && np.SlotToken[j][next[j]] >= 0 {
					next[j]++
				}
				if next[j] < t {
					np.SlotToken[j][next[j]], np.SlotWeight[j][next[j]] = tok, plan.SlotWeight[ex][s]
					next[j]++
					cursor = (j + 1) % e
					rerouted++
					placed = true
				}
			}
			if !placed {
				dropped++
				np.Dropped++
			}
		}
	}
	return np, rerouted, dropped
}
