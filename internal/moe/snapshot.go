package moe

// Checkpointing: World.Snapshot captures everything a training run
// mutates — gate and per-expert parameters, the step and collective-op
// counters, and the private RNG state of noisy gates — and
// World.Restore writes it back. The tensors are copied both ways, so a
// snapshot taken before a fault is immune to the partial gradient and
// parameter writes an aborted plan may have left behind. The one snapshot
// that is not a copy is StepWorlds' checkpoint: a view of the live
// parameters that ckpt.Manager.Start has encoded by the time it returns.
// Serialization, checksums and atomic file I/O live in internal/ckpt; this
// file is only the mapping between a live World and its ckpt.WorldState.

import (
	"fmt"

	"repro/internal/ckpt"
)

// RNGCarrier is implemented by gates holding private RNG state that
// training mutates (GShard's noisy gating). Snapshot/Restore round-trip
// it so a restored run replays the identical noise stream; stateless
// gates simply don't implement it.
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

// Snapshot captures the world's full mutable training state. The world
// must not be mid-pass; parameters are deep-copied, so later steps never
// alias into the snapshot.
func (w *World) Snapshot() *ckpt.WorldState { return w.snapshot(false) }

// snapshot is Snapshot, or with view a snapshot whose tensors alias the
// live parameters: valid only until the next pass writes them.
func (w *World) snapshot(view bool) *ckpt.WorldState {
	ws := &ckpt.WorldState{Steps: w.steps, CollOps: w.collOps}
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

// Restore writes a snapshot back into the world: every parameter, the
// step and collective-op counters, and the gate's RNG state. Restoring
// rolls the whole training state back to the snapshot point — partially
// accumulated gradients are zeroed, since they belong to the abandoned
// timeline. A snapshot that does not match the layer is refused before
// anything is written. The world's topology (ranks, strategy, health) is
// untouched; elastic recovery layers on top (see recover.go).
func (w *World) Restore(ws *ckpt.WorldState) error {
	if err := w.checkRestore(ws); err != nil {
		return err
	}
	w.applyRestore(ws)
	return nil
}

// checkRestore reports whether ws can be restored into the world: the world
// is open and every parameter's name and element count match, so a snapshot
// is never applied to a differently-shaped layer, not even in part.
func (w *World) checkRestore(ws *ckpt.WorldState) error {
	if w.closed {
		return fmt.Errorf("moe: restore: %w", ErrWorldClosed)
	}
	gate := w.layer.cfg.Gate.Params()
	if len(gate) != len(ws.Gate) {
		return fmt.Errorf("moe: restore: gate has %d parameters, snapshot %d", len(gate), len(ws.Gate))
	}
	if len(w.layer.cfg.Experts) != len(ws.Experts) {
		return fmt.Errorf("moe: restore: layer has %d experts, snapshot %d",
			len(w.layer.cfg.Experts), len(ws.Experts))
	}
	for i, p := range gate {
		if p.Name != ws.Gate[i].Name || len(p.W.Data()) != len(ws.Gate[i].Data) {
			return fmt.Errorf("moe: restore: gate parameter %d is %q(%d), snapshot %q(%d)",
				i, p.Name, len(p.W.Data()), ws.Gate[i].Name, len(ws.Gate[i].Data))
		}
	}
	for e, ex := range w.layer.cfg.Experts {
		ps := ex.Params()
		if len(ps) != len(ws.Experts[e]) {
			return fmt.Errorf("moe: restore: expert %d has %d parameters, snapshot %d",
				e, len(ps), len(ws.Experts[e]))
		}
		for i, p := range ps {
			if p.Name != ws.Experts[e][i].Name || len(p.W.Data()) != len(ws.Experts[e][i].Data) {
				return fmt.Errorf("moe: restore: expert %d parameter %d is %q(%d), snapshot %q(%d)",
					e, i, p.Name, len(p.W.Data()), ws.Experts[e][i].Name, len(ws.Experts[e][i].Data))
			}
		}
	}
	return nil
}

// applyRestore writes a snapshot checkRestore accepted.
func (w *World) applyRestore(ws *ckpt.WorldState) {
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
	w.collOps = ws.CollOps
	w.layer.ZeroGrad()
}

// SnapshotWorlds captures a whole stack: one WorldState per layer in
// stack order, stamped with the stack's completed-step count.
func SnapshotWorlds(worlds []*World) *ckpt.Snapshot { return snapshotWorlds(worlds, false) }

// snapshotWorlds is SnapshotWorlds, or with view the aliasing snapshot a
// ckpt.Manager's Start encodes before it returns.
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
