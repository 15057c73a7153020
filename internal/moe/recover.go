package moe

// Elastic recovery: the other half of PR 6's fault tolerance. Degraded
// mode keeps a pass alive when a rank dies, but the world then degrades
// monotonically — lost expert state is gone and the dead experts stay
// frozen until a manual ResetHealth. Recover instead rebuilds: the
// training state rolls back to a checkpoint, the dead rank's experts are
// re-assigned across the surviving ranks (shrink) or onto a replacement
// rank (rejoin), the restored weights of every re-placed expert travel a
// guarded Broadcast to their new owner (the FastMoE "shadowing" /
// FlexMoE re-placement move, driven by failure instead of routing skew),
// and the plan builder re-emits its collective chains for the new
// placement on the next pass — plan construction derives entirely from
// the world config, so nothing is patched in place. Every strategy
// recovers as itself: a new (R′, g′) is the same builder call, with ESP at
// g′ = R′ and Hybrid at g′ = gcd(g, R′), the widest group the old one and
// the new rank count both admit.
//
// Recovery is rollback-based: parameters, step counter, collective-op
// counter and gate RNG state all return to the snapshot point, so a
// recovered run is bit-identical to a fresh run restarted from the same
// checkpoint on the same surviving topology (the headline contract,
// asserted by TestWorldRecoverBitIdentical).

import (
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/sim"
)

// RecoveryMode selects how the world is rebuilt around the dead rank.
type RecoveryMode string

const (
	// RecoverShrink rebuilds on the surviving ranks: the new rank count is
	// the largest R' < R dividing every layer's expert count — one R' for
	// the whole stack, which steps only at a uniform rank count — and the
	// contiguous owner mapping (expert e → rank e·R'/E) re-distributes every
	// expert across the survivors.
	RecoverShrink RecoveryMode = "shrink"
	// RecoverRejoin keeps the rank count: the dead rank is replaced by a
	// fresh worker that receives its expert shard from the checkpoint —
	// the "failed worker replaced" transition, now with restored state
	// instead of frozen parameters.
	RecoverRejoin RecoveryMode = "rejoin"
)

// RecoveryPolicy configures Recover; the zero value shrinks.
type RecoveryPolicy struct {
	Mode RecoveryMode // default RecoverShrink
}

// recoverStream labels the recovery broadcasts for fault injection; it is
// not a per-rank stream, so injected guard failures attribute to no rank.
const recoverStream = "recover"

// RecoveryReport describes one world's completed recovery.
type RecoveryReport struct {
	Mode     RecoveryMode
	DownRank int // the rank whose loss triggered recovery

	OldRanks, NewRanks       int
	OldStrategy, NewStrategy Strategy
	// OldGroupSize and NewGroupSize are the hybrid group widths before and
	// after (0 unless the strategy is StrategyHybrid).
	OldGroupSize, NewGroupSize int

	// RestoredStep is the step counter the world rolled back to.
	RestoredStep int

	// MovedExperts lists every expert whose owner rank changed — the
	// experts whose restored weights travelled a recovery Broadcast.
	MovedExperts []int

	// Traffic is the weight re-placement broadcast volume; Retries counts
	// transient guard failures absorbed while moving it.
	Traffic comm.Stats
	Retries int

	// RecoveryMS is the wall time of the whole rebuild — the MTTR of this
	// failure.
	RecoveryMS float64
}

// RecoverWorlds rebuilds a stack around its permanently failed rank: the
// down rank is located on whichever world saw the failure, and every
// world — degraded or not — is rebuilt to the same surviving topology,
// since a stack steps only at a uniform rank count. Every world is checked
// against its snapshot and its new placement before any is rolled back; a
// weight re-placement broadcast that still fails after its retries returns
// with the layers before it already rebuilt.
func RecoverWorlds(worlds []*World, s *ckpt.Snapshot, pol RecoveryPolicy) ([]*RecoveryReport, error) {
	if len(worlds) == 0 {
		return nil, fmt.Errorf("moe: recover needs at least one world")
	}
	if s == nil {
		return nil, fmt.Errorf("moe: recover needs a snapshot")
	}
	if len(worlds) != len(s.Worlds) {
		return nil, fmt.Errorf("moe: recover: stack has %d worlds, snapshot %d", len(worlds), len(s.Worlds))
	}
	down := -1
	for _, w := range worlds {
		if w.down >= 0 {
			down = w.down
		}
	}
	if down < 0 {
		return nil, fmt.Errorf("moe: recover: no rank is down anywhere in the stack (recovery follows a permanent failure)")
	}
	mode := pol.Mode
	if mode == "" {
		mode = RecoverShrink
	}
	oldR := worlds[0].cfg.Ranks
	newR := oldR
	switch mode {
	case RecoverRejoin:
	case RecoverShrink:
	shrink:
		for newR = oldR - 1; newR >= 1; newR-- {
			for _, w := range worlds {
				if len(w.layer.cfg.Experts)%newR != 0 {
					continue shrink
				}
			}
			break
		}
		if newR == 0 {
			return nil, fmt.Errorf("moe: recover: no rank count below %d divides every layer's expert count", oldR)
		}
	default:
		return nil, fmt.Errorf("moe: recover: unknown mode %q (valid: %s, %s)", mode, RecoverShrink, RecoverRejoin)
	}
	cfgs := make([]WorldConfig, len(worlds))
	pls := make([]placement, len(worlds))
	for i, w := range worlds {
		if w.cfg.Ranks != oldR {
			return nil, fmt.Errorf("moe: recover: layer %d has %d ranks, layer 0 has %d", i, w.cfg.Ranks, oldR)
		}
		err := w.checkRestore(&s.Worlds[i])
		if err == nil {
			cfgs[i], pls[i], err = w.recoveryConfig(newR)
		}
		if err != nil {
			return nil, fmt.Errorf("moe: recover layer %d: %w", i, err)
		}
	}
	reports := make([]*RecoveryReport, len(worlds))
	for i, w := range worlds {
		rep, err := w.recoverTo(&s.Worlds[i], mode, down, cfgs[i], pls[i])
		if err != nil {
			return nil, fmt.Errorf("moe: recover layer %d: %w", i, err)
		}
		reports[i] = rep
	}
	return reports, nil
}

// recoveryConfig is the configuration and placement the world moves to at
// newR ranks. The strategy stays; a hybrid group keeps the widest width
// that still divides the rank count (the staged contract holds at every
// width), and the node shape the largest width not exceeding the old one
// that divides it.
func (w *World) recoveryConfig(newR int) (WorldConfig, placement, error) {
	cfg := w.cfg
	if cfg.Strategy == StrategyHybrid {
		cfg.GroupSize = gcd(cfg.GroupSize, newR)
	}
	gpn := 1
	for d := 1; d <= w.cfg.GPUsPerNode && d <= newR; d++ {
		if newR%d == 0 {
			gpn = d
		}
	}
	cfg.Ranks, cfg.GPUsPerNode = newR, gpn
	pl, err := place(cfg)
	return cfg, pl, err
}

// recoverTo is the per-world rebuild onto newCfg and pl, which
// recoveryConfig returned; checkRestore has accepted ws.
func (w *World) recoverTo(ws *ckpt.WorldState, mode RecoveryMode, downRank int, newCfg WorldConfig, pl placement) (*RecoveryReport, error) {
	t0 := time.Now()
	e := len(w.layer.cfg.Experts)
	oldR, oldEgrp, newR, gpn := w.cfg.Ranks, w.egrp, newCfg.Ranks, newCfg.GPUsPerNode
	rep := &RecoveryReport{
		Mode:         mode,
		DownRank:     downRank,
		OldRanks:     oldR,
		NewRanks:     newR,
		OldStrategy:  w.cfg.Strategy,
		NewStrategy:  newCfg.Strategy,
		OldGroupSize: w.GroupSize(),
		RestoredStep: ws.Steps,
	}

	// Roll the full training state back to the snapshot: parameters, step
	// counter, collective-op counter, gate RNG. Aborted-plan residue
	// (partial gradients, partial parameter writes) dies here.
	w.applyRestore(ws)

	// Re-place weights: every expert whose owner changed under the new
	// contiguous mapping — including the dead rank's whole shard in rejoin
	// mode — receives its restored parameters over a guarded Broadcast
	// from rank 0 (the checkpoint reader), so the recovery traffic is
	// measured and chaos injection reaches it like any other collective.
	newEgrp := e / newR
	for ex := 0; ex < e; ex++ {
		if ex/oldEgrp != ex/newEgrp || ex/oldEgrp == downRank {
			rep.MovedExperts = append(rep.MovedExperts, ex)
		}
	}
	attempts := w.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for _, ex := range rep.MovedExperts {
		params := w.layer.cfg.Experts[ex].Params()
		n := 0
		for _, p := range params {
			n += len(p.W.Data())
		}
		bufs := make([][]float64, newR)
		for r := range bufs {
			bufs[r] = make([]float64, n)
		}
		off := 0
		for _, p := range params {
			copy(bufs[0][off:], p.W.Data())
			off += len(p.W.Data())
		}
		guard := w.collGuard(nil, recoverStream, sim.KindBroadcast)
		var st comm.Stats
		for a := 0; ; a++ {
			s, err := comm.BroadcastGuarded(guard, bufs, 0, gpn)
			if err == nil {
				st = s
				break
			}
			if !fault.IsTransient(err) || a+1 >= attempts {
				return nil, fmt.Errorf("moe: recover: broadcast expert %d weights: %w", ex, err)
			}
			rep.Retries++
		}
		rep.Traffic.Merge(st)
		// The new owner's received copy is authoritative.
		owner := ex / newEgrp
		off = 0
		for _, p := range params {
			copy(p.W.Data(), bufs[owner][off:off+len(p.W.Data())])
			off += len(p.W.Data())
		}
	}
	w.addStats(rep.Traffic)

	// Commit the new topology: resize the kernel pool to the new stream
	// count, install the new placement, drop the workspace cut for the old
	// one, strip the injector's down trigger (the dead rank no longer
	// exists in the rebuilt world), and clear the health state exactly as a
	// manual ResetHealth would.
	w.pool.Close()
	w.cfg = newCfg
	w.egrp = newEgrp
	w.pl = pl
	w.ws = nil
	w.planResources()
	w.countGradElems()
	w.faults = w.faults.WithoutDown()
	w.ResetHealth()

	rep.NewGroupSize = w.GroupSize()
	rep.RecoveryMS = time.Since(t0).Seconds() * 1e3
	w.recov = append(w.recov, rep)
	return rep, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// drainRecoveries returns and clears the recovery reports accumulated
// since the previous completed step — the step-telemetry feed.
func (w *World) drainRecoveries() []*RecoveryReport {
	r := w.recov
	w.recov = nil
	return r
}
