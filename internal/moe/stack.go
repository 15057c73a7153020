package moe

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/gradsync"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// stack is everything a slice of Worlds keeps from one StepWorlds,
// SyncWorlds or RecoverWorlds call to the next, and its one owner: the
// solved §5 byte plan, reused while the sync configuration and layer specs
// compare equal; the stack's parameters and gradients as two flat buffers in
// one layout — layer i at [off[i], off[i+1]), within it the world's gradOff
// layout — of which every Param.W and Param.G is a view at its own offset;
// the checkpoint commit in flight; the distinct telemetry sinks; and the
// recovery reports that wait for the next step. A step leaves its gradient
// in grads (experts' written by the finish tasks, the gate's accumulated by
// its backward) and w − lr·g in params.
//
// A checkpoint's commit reads params until it completes (ckpt.Manager.Start),
// so the step after a checkpoint, pinned, writes w − lr·g into spare and
// then swaps the two buffers, re-pointing every Param.W at its pre-built
// view of the new params. A stack that never checkpoints never makes spare.
//
// Each MOELayer points to the stack whose buffers hold its parameters, so
// whatever writes them outside a step — a restore, a new cut — waits for
// that stack's commit first (wait).
type stack struct {
	worlds []*World // the slice the stack was cut for, in order
	plan   *gradsync.Plan
	params []float64 // [Σ layer gradElems] the live parameters
	grads  []float64 // [Σ layer gradElems] the gradients, what the §5 slices read
	off    []int     // [layer+1] each layer's first element

	spare  []float64        // the second parameter buffer, made on first use
	views  []*tensor.Tensor // every parameter's view of params, in stack order
	spareV []*tensor.Tensor // and of spare
	pinned bool             // commit may still read params

	commit *ckpt.Manager     // whose commit a step last started over params; nil before the first
	sinks  []telemetry.Sink  // the worlds' distinct sinks, nil when none has one
	recov  []*RecoveryReport // recoveries since the last completed step, for its telemetry

	// Per-step scratch, sized with the buffers.
	specs  []gradsync.LayerSpec
	caches []*WorldCache
	lr     float64
	target []float64 // where this step's update writes: params, or spare when pinned
}

// stackFor returns the stack of worlds: the one every world's layer points
// to, when worlds holds exactly its worlds in order — L pointer compares,
// no scan of the parameters — or else, once checkStack accepts the slice
// for op, a new cut. A cut waits for the commit of the stack each layer
// leaves, copies the live parameters into new buffers, and with keepGrads
// the gradients too (a step writes every gradient before it reads one, so
// it starts from zeros), re-points each Param at its views and each layer at
// the new stack. It takes over the §5 plan of the first layer's stack and
// the recovery reports of every stack it takes a layer from; a stack that
// loses a layer is never found again.
func stackFor(op string, worlds []*World, keepGrads bool) (*stack, error) {
	if len(worlds) > 0 {
		if st := worlds[0].layer.stack; st != nil && st.is(worlds) {
			return st, nil
		}
	}
	if err := checkStack(op, worlds); err != nil {
		return nil, err
	}
	L := len(worlds)
	off := make([]int, L+1)
	for i, w := range worlds {
		off[i+1] = off[i] + w.gradElems()
	}
	st := &stack{
		worlds: slices.Clone(worlds), params: make([]float64, off[L]), grads: make([]float64, off[L]), off: off,
		sinks: distinctSinks(worlds), specs: make([]gradsync.LayerSpec, L), caches: make([]*WorldCache, L),
	}
	if old := worlds[0].layer.stack; old != nil {
		st.plan = old.plan
	}
	for i, w := range worlds {
		if old := w.layer.stack; old != nil {
			old.wait()
			st.recov, old.recov = append(st.recov, old.recov...), nil
		}
		w.layer.stack = st
		k := off[i]
		for _, p := range w.params {
			n := len(p.W.Data())
			pw, pg := st.params[k:k+n:k+n], st.grads[k:k+n:k+n]
			copy(pw, p.W.Data())
			if keepGrads {
				copy(pg, p.G.Data())
			}
			p.W, p.G = tensor.FromData(pw, p.W.Shape()...), tensor.FromData(pg, p.G.Shape()...)
			st.views = append(st.views, p.W)
			k += n
		}
	}
	return st, nil
}

// is reports whether worlds is the slice st was cut for and every world's
// layer still points to st.
func (st *stack) is(worlds []*World) bool {
	if len(worlds) != len(st.worlds) {
		return false
	}
	for i, w := range worlds {
		if w != st.worlds[i] || w.layer.stack != st {
			return false
		}
	}
	return true
}

// checkStack validates what op needs of a slice before it is cut into a
// stack: at least one world, all at one rank count, and no two over one
// layer — the same World twice, or two Worlds over one MOELayer, would need
// two views of each of its parameters.
func checkStack(op string, worlds []*World) error {
	if len(worlds) == 0 {
		return fmt.Errorf("moe: %s needs at least one world", op)
	}
	for i, w := range worlds {
		if w.cfg.Ranks != worlds[0].cfg.Ranks {
			return fmt.Errorf("moe: world %d has %d ranks, world 0 has %d", i, w.cfg.Ranks, worlds[0].cfg.Ranks)
		}
		for j, v := range worlds[:i] {
			if v.layer == w.layer {
				return fmt.Errorf("moe: %s: worlds %d and %d share one layer's parameters", op, j, i)
			}
		}
	}
	return nil
}

// wait waits for the checkpoint commit a step last started over st's
// parameters, if any (st may be nil). Its failure stays with the manager for
// the next checkpointing step, or Close, to report.
func (st *stack) wait() {
	if st != nil && st.commit != nil {
		_ = st.commit.Wait()
	}
}

// layerGrads is layer i's span of the gradient buffer.
func (st *stack) layerGrads(i int) []float64 { return st.grads[st.off[i]:st.off[i+1]] }

// updateTarget is where this step's update writes: the live parameters, or
// when pinned the spare buffer, made with its views on the first call.
func (st *stack) updateTarget() []float64 {
	if !st.pinned {
		return st.params
	}
	if st.spare == nil {
		st.spare = make([]float64, len(st.params))
		k := 0
		for _, v := range st.views {
			n := v.Size()
			st.spareV = append(st.spareV, tensor.FromData(st.spare[k:k+n:k+n], v.Shape()...))
			k += n
		}
	}
	return st.spare
}

// swap makes the spare buffer, which a pinned step's update wrote, the
// live parameters, and re-points every Param.W at its view of it. The
// buffer it retires is the one a checkpoint commit may still read; it stays
// untouched until the stack's next checkpoint, which waits for the commit.
func (st *stack) swap() {
	st.params, st.spare = st.spare, st.params
	st.views, st.spareV = st.spareV, st.views
	j := 0
	for _, w := range st.worlds {
		for _, p := range w.params {
			p.W = st.views[j]
			j++
		}
	}
	st.pinned = false
}

// update is the SGD step a §5 slice applies to elements [lo, hi) of layer:
// target = params − lr·grads, in place unless the step is pinned, the
// gradient left as it is. Every element of every layer comes by exactly
// once per step, so a pinned step writes the whole spare buffer.
func (st *stack) update(layer, lo, hi int) {
	o := st.off[layer]
	tensor.AddScaledRowTo(st.target[o+lo:o+hi], st.params[o+lo:o+hi], st.grads[o+lo:o+hi], -st.lr)
}

// distinctSinks collects the distinct non-nil telemetry sinks configured
// across the worlds, once per cut (nil when telemetry is disabled
// everywhere — the common case, which must not allocate).
func distinctSinks(worlds []*World) []telemetry.Sink {
	var sinks []telemetry.Sink
	for _, w := range worlds {
		if s := w.cfg.Sink; s != nil && !slices.ContainsFunc(sinks, func(have telemetry.Sink) bool { return sameSink(have, s) }) {
			sinks = append(sinks, s)
		}
	}
	return sinks
}

// sameSink reports whether two sinks are the same emission target.
// Interface equality would panic on uncomparable dynamic types (a func),
// so reference kinds compare by identity instead.
func sameSink(a, b telemetry.Sink) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	switch va.Kind() {
	case reflect.Func, reflect.Pointer, reflect.Map, reflect.Chan, reflect.Slice:
		return va.Pointer() == vb.Pointer()
	}
	return va.Type().Comparable() && a == b
}
