package moe

import (
	"fmt"
	"time"

	"repro/internal/tensor"
)

// Degraded-mode stepping: a permanent rank-down event mid-plan does not
// abort training. The world marks the rank dead, drops its expert shard,
// and completes the pass on a sequential fallback path built around the
// survivors:
//
//   - Forward-time failure: the dead rank's experts can no longer run, so
//     every token they held is re-routed into surviving experts' free
//     capacity slots (keeping its original combine weight — the fallback
//     approximation); tokens with nowhere to go are dropped like
//     over-capacity tokens in §2.1. The forward is then recomputed
//     sequentially from the prolog under the re-routed plan.
//
//   - Backward-time failure: the forward already completed at full
//     strength, so the routing is kept and only the dead experts' slots
//     are cleared — their gradient contribution is dropped. The surviving
//     experts' forward passes are rebuilt from the cached dispatch and
//     the backward runs sequentially. The aborted plan may have partially
//     accumulated parameter gradients, so the layer's gradients are
//     zeroed first (during a training step: every expert's span of the
//     resident arenas is marked unwritten, so what the survivors do not
//     rewrite is cleared in its owner's span before the gather).
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
	// before the permanent failure; RecoveryMS is the sequential fallback
	// time the failure added on top of the aborted plan — the tail
	// inflation of surviving the fault.
	Retries    int
	RecoveryMS float64
	Cause      string
}

// degradedState carries a degraded forward's private state to Backward in
// place of the strategy caches.
type degradedState struct {
	dplan  *DispatchPlan // the re-routed (or slot-cleared) plan actually executed
	passes []*blockPass  // surviving experts' forward passes; nil for lost ones
	lo, hi int           // lost expert range [lo, hi)
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

// degradedForward completes a forward pass around the dead rank: re-route
// the lost experts' tokens, then recompute sequentially from the prolog
// (the aborted pipelined buffers are never read — the prolog's flat input
// is intact).
func (w *World) degradedForward(pr *forwardProlog, retries int, cause string) (*tensor.Tensor, *WorldCache, error) {
	if pr.plan.IsDense() {
		return nil, nil, fmt.Errorf("moe: degraded mode needs hard routing; dense plans have no per-token fallback (rank %d down)", w.down)
	}
	t0 := time.Now()
	lo, hi := w.lostRange()
	dplan, rerouted, dropped := reroutePlan(pr.plan, lo, hi)
	mdim := w.layer.cfg.M
	e, t := dplan.Experts, dplan.Capacity

	scattered := tensor.New(e, t, mdim)
	w.layer.cfg.Order.Scatter(scattered, pr.flat, dplan)
	expertOut := tensor.New(e, t, mdim)
	passes := w.forwardSurvivors(scattered, expertOut, lo, hi)
	y := w.layer.epilog(tensor.New(pr.flat.Dim(0), mdim), expertOut, dplan, pr.shape)

	res := &DegradedResult{
		Rank:           w.down,
		Phase:          "forward",
		LostExperts:    lostList(lo, hi),
		ReroutedTokens: rerouted,
		DroppedTokens:  dropped,
		Retries:        retries,
		RecoveryMS:     time.Since(t0).Seconds() * 1e3,
		Cause:          cause,
	}
	w.degraded = res
	cache := &WorldCache{
		pr:       pr,
		combined: expertOut,
		deg:      &degradedState{dplan: dplan, passes: passes, lo: lo, hi: hi, res: res},
	}
	return y, cache, nil
}

// forwardSurvivors runs every expert outside the lost range [lo, hi) on its
// live rows of in, an (E, S, M) buffer, into the (E, T, M) buffer out (a
// dead expert's slots are empty and its block is not written), returning
// the forward passes.
func (w *World) forwardSurvivors(in, out *tensor.Tensor, lo, hi int) []*blockPass {
	passes := make([]*blockPass, len(w.layer.cfg.Experts))
	for j, ex := range w.layer.cfg.Experts {
		if j < lo || j >= hi {
			passes[j] = forwardBlock(ex, slotBlock(in, j, out.Dim(1)), slotBlock(out, j, out.Dim(1)))
		}
	}
	return passes
}

// degradedBackward runs the sequential backward paired with a degraded
// forward cache: I-Order adjoint under the degraded plan, surviving
// experts only, frozen router.
func (w *World) degradedBackward(cache *WorldCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	t0 := time.Now()
	st := cache.deg
	pr := cache.pr
	dplan := st.dplan
	mdim := w.layer.cfg.M
	e, t := dplan.Experts, dplan.Capacity

	// The forward's outputs keep the stride they were computed at: T after a
	// degraded forward, Tpad when only the backward plan was lost.
	stride := cache.combined.Dim(1)
	dExpertOut := tensor.New(e, stride, mdim)
	if _, err := w.layer.backwardProlog(dExpertOut, cache.combined, dplan, dy); err != nil {
		return nil, err
	}
	dScattered := tensor.New(e, stride, mdim)
	for j := 0; j < e; j++ {
		if j >= st.lo && j < st.hi {
			continue // dead expert: no cache, no gradient, block stays zero
		}
		st.passes[j].backward(slotBlock(dExpertOut, j, t), slotBlock(dScattered, j, t), w.gradDst(j))
		w.wrote(j)
	}
	dx := tensor.New(pr.flat.Dim(0), mdim)
	w.layer.cfg.Order.ScatterGrad(dx, dScattered, dplan)
	// Frozen router: no Gate.Backward — its RouteCache pairs with the
	// original plan, not the degraded one (see the package comment above).
	if len(pr.shape) == 3 {
		dx = dx.Reshape(pr.shape...)
	}
	w.release(cache)
	st.res.RecoveryMS += time.Since(t0).Seconds() * 1e3
	w.degraded = st.res
	return dx, nil
}

// degradedBackwardRecover handles a permanent failure during a
// full-strength backward plan: the forward completed intact, so the
// routing is kept with the dead experts' gradient slots cleared, the
// surviving experts' passes are rebuilt by re-running their forward from
// the cached dispatch, and the partially accumulated gradients of the
// aborted plan are zeroed before the sequential backward recomputes them.
func (w *World) degradedBackwardRecover(cache *WorldCache, dy *tensor.Tensor, retries int, cause string) (*tensor.Tensor, error) {
	pr := cache.pr
	if pr.plan.IsDense() {
		return nil, fmt.Errorf("moe: degraded mode needs hard routing; dense plans have no per-token fallback (rank %d down)", w.down)
	}
	t0 := time.Now()
	lo, hi := w.lostRange()
	dplan, cleared := clearLostSlots(pr.plan, lo, hi)

	// The aborted plan's W tasks may have accumulated partial parameter
	// gradients; restart this layer's accumulation from zero.
	w.layer.ZeroGrad()
	if w.grads != nil {
		clear(w.grads.written)
	}

	// Only the passes matter; the recomputed outputs are scratch.
	passes := w.forwardSurvivors(cache.scattered, tensor.New(dplan.Experts, dplan.Capacity, w.layer.cfg.M), lo, hi)

	res := &DegradedResult{
		Rank:          w.down,
		Phase:         "backward",
		LostExperts:   lostList(lo, hi),
		DroppedTokens: cleared,
		Retries:       retries,
		RecoveryMS:    time.Since(t0).Seconds() * 1e3,
		Cause:         cause,
	}
	cache.deg = &degradedState{dplan: dplan, passes: passes, lo: lo, hi: hi, res: res}
	return w.degradedBackward(cache, dy)
}

// copyPlan deep-copies a hard routing plan's slot tables.
func copyPlan(plan *DispatchPlan) *DispatchPlan {
	np := &DispatchPlan{
		Experts:  plan.Experts,
		Capacity: plan.Capacity,
		Dropped:  plan.Dropped,
		AuxLoss:  plan.AuxLoss,
	}
	np.SlotToken = make([][]int, plan.Experts)
	np.SlotWeight = make([][]float64, plan.Experts)
	for e := range plan.SlotToken {
		np.SlotToken[e] = append([]int(nil), plan.SlotToken[e]...)
		np.SlotWeight[e] = append([]float64(nil), plan.SlotWeight[e]...)
	}
	return np
}

// reroutePlan moves every occupied slot of experts [lo, hi) into free
// capacity of the surviving experts: a deterministic cyclic scan with a
// rotating start spreads the refugees round-robin, and per-expert scan
// positions keep the whole pass O(slots). Tokens keep their original
// combine weights; refugees with no free slot anywhere are dropped.
func reroutePlan(plan *DispatchPlan, lo, hi int) (np *DispatchPlan, rerouted, dropped int) {
	np = copyPlan(plan)
	next := make([]int, plan.Experts) // per-expert free-slot scan position
	cursor := hi % plan.Experts
	for e := lo; e < hi; e++ {
		for s := 0; s < plan.Capacity; s++ {
			tok := np.SlotToken[e][s]
			if tok < 0 {
				continue
			}
			wgt := np.SlotWeight[e][s]
			np.SlotToken[e][s], np.SlotWeight[e][s] = -1, 0
			placed := false
			for probe := 0; probe < plan.Experts; probe++ {
				cand := (cursor + probe) % plan.Experts
				if cand >= lo && cand < hi {
					continue
				}
				for next[cand] < plan.Capacity && np.SlotToken[cand][next[cand]] >= 0 {
					next[cand]++
				}
				if next[cand] < plan.Capacity {
					np.SlotToken[cand][next[cand]] = tok
					np.SlotWeight[cand][next[cand]] = wgt
					next[cand]++
					cursor = (cand + 1) % plan.Experts
					rerouted++
					placed = true
					break
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

// clearLostSlots empties the slots of experts [lo, hi), dropping their
// tokens' contribution; cleared counts the occupied slots lost.
func clearLostSlots(plan *DispatchPlan, lo, hi int) (np *DispatchPlan, cleared int) {
	np = copyPlan(plan)
	for e := lo; e < hi; e++ {
		for s := range np.SlotToken[e] {
			if np.SlotToken[e][s] >= 0 {
				np.SlotToken[e][s], np.SlotWeight[e][s] = -1, 0
				cleared++
				np.Dropped++
			}
		}
	}
	return np, cleared
}
