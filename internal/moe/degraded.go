package moe

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/tensor"
)

// Degraded-mode stepping: a permanent rank-down event mid-plan does not
// abort training. The world marks the rank dead and completes the pass on
// the survivors' layer: the surviving experts in index order, the layer's
// Order and hooks, and a frozen router. Its one-rank World (MOELayer.world)
// runs the pass through the same plan builder and executor as every other
// pass, on a plan without the dead rank's experts (survivorPlan):
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
//     dropped — their gradient contribution is lost. The survivors' forward
//     runs again from the prolog to begin the passes its backward
//     continues. The aborted plan may have partially accumulated parameter
//     gradients, so the layer's gradients are zeroed first (during a
//     training step Param.G is the layer's span of the stack's gradient
//     buffer, and every expert is marked unwritten, so what the survivors
//     do not rewrite is cleared; the §5 slices then step the parameters
//     from it).
//
// In both modes the router is frozen: the gate backward pairs its
// RouteCache with the original plan, which no longer describes the
// executed routing, so the routing gradient is dropped for the degraded
// step. Dead experts accumulate no gradient, so an optimizer step leaves
// them untouched and a later ResetHealth resumes from consistent weights.
// Dense (SoftMoE) plans spread every token over every expert and have no
// per-token fallback, so degraded mode requires hard routing.

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
	// before the permanent failure; RecoveryMS is the time the survivors'
	// passes added on top of the aborted plan — the tail inflation of
	// surviving the fault.
	Retries    int
	RecoveryMS float64
	Cause      string
}

// degradedState carries a degraded forward's private state to Backward in
// place of the strategy caches.
type degradedState struct {
	sw     *World      // the survivors' layer's World the pass ran on
	cache  *WorldCache // its forward cache
	lo, hi int         // lost expert range [lo, hi)
	res    *DegradedResult
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

// survivors returns the survivors' layer's one-rank World, building the
// layer at the first degraded pass: the experts outside the dead rank's
// range in index order, the layer's Order and hooks, and the frozen router.
// Like the layer's own World it needs no Close; ResetHealth drops it.
func (w *World) survivors() *World {
	if w.surv == nil {
		lo, hi := w.lostRange()
		cfg := w.layer.cfg
		cfg.Gate = frozenGate{}
		cfg.Experts = append(cfg.Experts[:lo:lo], cfg.Experts[hi:]...)
		w.surv = &MOELayer{cfg: cfg, hooks: w.layer.hooks}
	}
	return w.surv.world()
}

// frozenGate is the survivors' layer's router: a degraded pass takes its
// plan from survivorPlan, so it never routes, and it has no parameters; its
// backward contributes a zero input gradient.
type frozenGate struct{}

func (frozenGate) Name() string { return "frozen" }
func (frozenGate) Route(*tensor.Tensor, bool) (*DispatchPlan, *RouteCache, error) {
	return nil, nil, errors.New("moe: the frozen router does not route")
}
func (frozenGate) Backward(dx *tensor.Tensor, _ *RouteCache, _ *PlanGrad) { clear(dx.Data()) }
func (frozenGate) Params() []*Param                                       { return nil }

// degradedForward runs the forward of a pass that lost rank w.down in phase
// ("forward" or "backward") on the survivors' World, from the prolog pr of
// the aborted (or, with the rank already down, never built) plan: at a
// forward-time loss the dead rank's tokens move to free surviving slots, at
// a backward-time loss they are dropped. owned is forward's.
func (w *World) degradedForward(pr *forwardProlog, owned bool, phase string, retries int, cause string) (*tensor.Tensor, *WorldCache, error) {
	if pr.plan.IsDense() {
		return nil, nil, fmt.Errorf("moe: degraded mode needs hard routing; dense plans have no per-token fallback (rank %d down)", w.down)
	}
	t0 := time.Now()
	lo, hi := w.lostRange()
	plan, rerouted, dropped := survivorPlan(pr.plan, lo, hi, phase == "forward")
	sw := w.survivors()
	y, sc, err := sw.pass(&forwardProlog{shape: pr.shape, flat: pr.flat, plan: plan}, owned)
	if err != nil {
		return nil, nil, err
	}
	res := &DegradedResult{
		Rank:           w.down,
		Phase:          phase,
		LostExperts:    lostList(lo, hi),
		ReroutedTokens: rerouted,
		DroppedTokens:  dropped,
		Retries:        retries,
		RecoveryMS:     time.Since(t0).Seconds() * 1e3,
		Cause:          cause,
	}
	w.degraded = res
	cache := &WorldCache{pr: pr, combined: sc.combined, deg: &degradedState{sw: sw, cache: sc, lo: lo, hi: hi, res: res}}
	return y, cache, nil
}

// degradedBackward runs the backward paired with a degraded forward cache
// on the survivors' World: during a training step each surviving expert's
// finish routine writes its Param.G, and marks it written under its index
// in the whole layer. The gate's routing goes back to it unread (frozen
// router).
func (w *World) degradedBackward(cache *WorldCache, dy *tensor.Tensor, owned bool) (*tensor.Tensor, error) {
	t0 := time.Now()
	d := cache.deg
	if w.written != nil {
		d.sw.written = make([]bool, len(d.sw.layer.cfg.Experts))
	}
	dx, err := d.sw.backward(d.cache, dy, owned)
	for j, done := range d.sw.written {
		e := j
		if e >= d.lo {
			e += d.hi - d.lo
		}
		if done {
			w.wrote(e)
		}
	}
	d.sw.written = nil
	w.drop(cache)
	if err != nil {
		return nil, err
	}
	d.res.RecoveryMS += time.Since(t0).Seconds() * 1e3
	w.degraded = d.res
	return dx, nil
}

// survivorPlan is the plan of a pass without experts [lo, hi): the
// surviving experts' slot tables in index order, and the lost experts'
// occupied slots either dropped or, with reroute, moved into the
// survivors' free capacity — a deterministic cyclic scan over the experts
// with a rotating start spreads the refugees round-robin, and per-expert
// scan positions keep the whole pass O(slots). Tokens keep their original
// combine weights; refugees with no free slot anywhere are dropped.
func survivorPlan(plan *DispatchPlan, lo, hi int, reroute bool) (np *DispatchPlan, rerouted, dropped int) {
	e, t, lost := plan.Experts, plan.Capacity, hi-lo
	np = &DispatchPlan{Experts: e - lost, Capacity: t, Dropped: plan.Dropped, AuxLoss: plan.AuxLoss}
	for ex := range e {
		if ex < lo || ex >= hi {
			np.SlotToken = append(np.SlotToken, append([]int(nil), plan.SlotToken[ex]...))
			np.SlotWeight = append(np.SlotWeight, append([]float64(nil), plan.SlotWeight[ex]...))
		}
	}
	next := make([]int, np.Experts) // per-survivor free-slot scan position
	cursor := hi % e
	for ex := lo; ex < hi; ex++ {
		for s, tok := range plan.SlotToken[ex] {
			if tok < 0 {
				continue
			}
			placed := false
			for probe := 0; reroute && !placed && probe < e; probe++ {
				cand := (cursor + probe) % e
				if cand >= lo && cand < hi {
					continue
				}
				j := cand // its index among the survivors
				if cand >= hi {
					j -= lost
				}
				for next[j] < t && np.SlotToken[j][next[j]] >= 0 {
					next[j]++
				}
				if next[j] < t {
					np.SlotToken[j][next[j]], np.SlotWeight[j][next[j]] = tok, plan.SlotWeight[ex][s]
					next[j]++
					cursor = (cand + 1) % e
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
