package moe

// Checkpointing: SnapshotWorlds captures everything a training run
// mutates, one ckpt.WorldState per layer of the stack — gate and per-expert
// parameters, the step counter, and the private RNG state of noisy gates —
// and RestoreWorlds writes it back. The tensors are
// copied both ways, so a snapshot taken before a fault is immune to the
// partial gradient and parameter writes an aborted plan may have left
// behind. The one snapshot that is not a copy is StepWorlds' checkpoint: a
// view of the live parameters, which the commit reads until the next
// Start, Wait or List returns (ckpt.Manager.Start). Nothing writes them
// meanwhile: the next step writes its update into the stack's spare buffer
// (resident, step.go), and a restore, a recovery or a new cut of the
// stack's buffers waits for the commit first.
// Serialization, checksums and atomic file I/O live in internal/ckpt; this
// file is only the mapping between a live World and its ckpt.WorldState.

import (
	"fmt"
	"slices"

	"repro/internal/ckpt"
)

// RNGCarrier is implemented by gates holding private RNG state that
// training mutates (GShard's noisy gating). SnapshotWorlds and
// RestoreWorlds round-trip it so a restored run replays the identical noise
// stream; stateless gates simply don't implement it.
type RNGCarrier interface {
	RNGState() (state, gamma uint64)
	SetRNGState(state, gamma uint64)
}

// snapTensor is one parameter in its snapshot form: a copy, or with view
// the live shape and data themselves.
func snapTensor(p *Param, view bool) ckpt.Tensor {
	if view {
		return ckpt.Tensor{Name: p.Name, Shape: p.W.Shape(), Data: p.W.Data()}
	}
	return ckpt.Tensor{
		Name:  p.Name,
		Shape: append([]int(nil), p.W.Shape()...),
		Data:  append([]float64(nil), p.W.Data()...),
	}
}

// snapshot captures the world's full mutable training state. The world
// must not be mid-pass. Parameters are deep-copied, so later steps never
// alias into the snapshot; with view its tensors alias the live parameters
// instead, valid until something writes them.
func (w *World) snapshot(view bool) *ckpt.WorldState {
	ws := &ckpt.WorldState{Steps: w.steps}
	for _, p := range w.layer.cfg.Gate.Params() {
		ws.Gate = append(ws.Gate, snapTensor(p, view))
	}
	ws.Experts = make([][]ckpt.Tensor, len(w.layer.cfg.Experts))
	for e, ex := range w.layer.cfg.Experts {
		for _, p := range ex.Params() {
			ws.Experts[e] = append(ws.Experts[e], snapTensor(p, view))
		}
	}
	if rc, ok := w.layer.cfg.Gate.(RNGCarrier); ok {
		s, g := rc.RNGState()
		ws.GateRNG = []ckpt.RNGState{{State: s, Gamma: g}}
	}
	return ws
}

// checkRestore reports whether ws can be restored into the world: the world
// is open and every parameter's name, shape and element count match, so a
// snapshot is never applied to a differently-shaped layer, not even in part.
func (w *World) checkRestore(ws *ckpt.WorldState) error {
	if w.closed {
		return fmt.Errorf("moe: restore: %w", ErrWorldClosed)
	}
	if len(w.layer.cfg.Experts) != len(ws.Experts) {
		return fmt.Errorf("moe: restore: layer has %d experts, snapshot %d",
			len(w.layer.cfg.Experts), len(ws.Experts))
	}
	if err := checkTensors("gate", w.layer.cfg.Gate.Params(), ws.Gate); err != nil {
		return err
	}
	for e, ex := range w.layer.cfg.Experts {
		if err := checkTensors(fmt.Sprintf("expert %d", e), ex.Params(), ws.Experts[e]); err != nil {
			return err
		}
	}
	return nil
}

// checkTensors reports whether ts snapshots ps, one tensor per parameter
// with its name, shape and element count.
func checkTensors(what string, ps []*Param, ts []ckpt.Tensor) error {
	if len(ps) != len(ts) {
		return fmt.Errorf("moe: restore: %s has %d parameters, snapshot %d", what, len(ps), len(ts))
	}
	for i, p := range ps {
		if t := ts[i]; p.Name != t.Name || !slices.Equal(p.W.Shape(), t.Shape) || len(p.W.Data()) != len(t.Data) {
			return fmt.Errorf("moe: restore: %s parameter %d is %q%v, snapshot %q%v (%d elements)",
				what, i, p.Name, p.W.Shape(), t.Name, t.Shape, len(t.Data))
		}
	}
	return nil
}

// applyRestore writes a snapshot checkRestore accepted back into the world:
// every parameter, the step counter, and the gate's RNG state, once the
// checkpoint commit reading the live parameters has completed. Restoring
// rolls the whole training state back to the snapshot point — partially
// accumulated gradients are zeroed, since they belong to the abandoned
// timeline. The world's topology (ranks, strategy, health) is
// untouched; elastic recovery layers on top (see recover.go).
func (w *World) applyRestore(ws *ckpt.WorldState) {
	w.waitCommit()
	for i, p := range w.layer.cfg.Gate.Params() {
		copy(p.W.Data(), ws.Gate[i].Data)
	}
	for e, ex := range w.layer.cfg.Experts {
		for i, p := range ex.Params() {
			copy(p.W.Data(), ws.Experts[e][i].Data)
		}
	}
	if rc, ok := w.layer.cfg.Gate.(RNGCarrier); ok && len(ws.GateRNG) > 0 {
		rc.SetRNGState(ws.GateRNG[0].State, ws.GateRNG[0].Gamma)
	}
	w.steps = ws.Steps
	w.layer.ZeroGrad()
}

// SnapshotWorlds captures a whole stack: one WorldState per layer in
// stack order, stamped with the stack's completed-step count.
func SnapshotWorlds(worlds []*World) *ckpt.Snapshot { return snapshotWorlds(worlds, false) }

// snapshotWorlds is SnapshotWorlds, or with view the aliasing snapshot a
// ckpt.Manager's commit reads.
func snapshotWorlds(worlds []*World, view bool) *ckpt.Snapshot {
	s := &ckpt.Snapshot{}
	if len(worlds) > 0 {
		s.Step = worlds[0].steps
	}
	for _, w := range worlds {
		s.Worlds = append(s.Worlds, *w.snapshot(view))
	}
	return s
}

// RestoreWorlds writes a stack snapshot back. Every layer is checked
// before any is written, so a snapshot one layer does not match leaves the
// whole stack as it was.
func RestoreWorlds(worlds []*World, s *ckpt.Snapshot) error {
	if s == nil {
		return fmt.Errorf("moe: restore needs a snapshot")
	}
	if len(worlds) != len(s.Worlds) {
		return fmt.Errorf("moe: restore: stack has %d worlds, snapshot %d", len(worlds), len(s.Worlds))
	}
	for i, w := range worlds {
		if err := w.checkRestore(&s.Worlds[i]); err != nil {
			return fmt.Errorf("moe: restore layer %d: %w", i, err)
		}
	}
	for i, w := range worlds {
		w.applyRestore(&s.Worlds[i])
	}
	return nil
}
