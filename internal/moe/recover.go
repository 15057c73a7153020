package moe

// Elastic recovery: the other half of the fault tolerance. Degraded
// mode keeps a pass alive when a rank dies, but the world then degrades
// monotonically — lost expert state is gone and the dead experts stay
// frozen until a manual ResetHealth. Recover instead rebuilds: the
// training state rolls back to a checkpoint, the dead rank's experts are
// re-assigned across the surviving ranks (shrink), the restored weights of
// every re-placed expert travel a Broadcast to their new owner (the FastMoE
// "shadowing" / FlexMoE re-placement move, driven by failure instead of
// routing skew), and the plan builder re-emits its collective chains for
// the new placement on the next pass — plan construction derives entirely
// from the world config, so nothing is patched in place. Every strategy
// recovers as itself: a new (R′, g′) is the same builder call, with ESP at
// g′ = R′ and Hybrid at g′ = gcd(g, R′), the widest group the old one and
// the new rank count both admit.
//
// Recovery is rollback-based: parameters, step counter and gate RNG state
// all return to the snapshot point, so a recovered run is bit-identical to
// a fresh run restarted from the same checkpoint on the same surviving
// topology (the headline contract, asserted by TestWorldRecoverBitIdentical).

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
)

// RecoveryPolicy configures Recover; the zero value shrinks, the one mode.
type RecoveryPolicy struct {
	Mode RecoveryMode // default RecoverShrink
}

// recoverStream labels the recovery broadcasts for fault injection; it is
// not a per-rank stream, so injected failures attribute to no rank and no
// rank-down trigger matches it.
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
	// injected transient failures absorbed while moving it.
	Traffic comm.Stats
	Retries int

	// RecoveryMS is the wall time of this world's rebuild — its rollback,
	// weight re-placement and topology swap: its share of the MTTR.
	RecoveryMS float64
}

// RecoverWorlds rebuilds a stack around its permanently failed rank: the
// down rank is located on whichever world saw the failure, and every
// world — degraded or not — is rebuilt to the same surviving topology,
// since a stack steps only at a uniform rank count. Every world is checked
// against its snapshot and its new placement before any is rolled back, and
// every world's weights are re-placed before any topology changes: a
// re-placement broadcast that still fails after its retries leaves the whole
// stack rolled back to the snapshot at its old rank count, with the down
// rank still reported, so the stack recovers again once the fault clears.
func RecoverWorlds(worlds []*World, s *ckpt.Snapshot, pol RecoveryPolicy) ([]*RecoveryReport, error) {
	// Every parameter a view of the stack's buffer, so each expert's
	// parameters are one span of it; the restore zeroes the gradients.
	st, err := stackFor("recover", worlds, false)
	if err != nil {
		return nil, err
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
	if mode != RecoverShrink {
		return nil, fmt.Errorf("moe: recover: unknown mode %q (valid: %s)", mode, RecoverShrink)
	}
	oldR := worlds[0].cfg.Ranks
	newR := oldR - 1
shrink:
	for ; newR >= 1; newR-- {
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
	cfgs := make([]WorldConfig, len(worlds))
	gs := make([]int, len(worlds))
	for i, w := range worlds {
		err := w.checkRestore(&s.Worlds[i])
		if err == nil {
			cfgs[i], gs[i], err = w.recoveryConfig(newR)
		}
		if err != nil {
			return nil, fmt.Errorf("moe: recover layer %d: %w", i, err)
		}
	}
	reports := make([]*RecoveryReport, len(worlds))
	for i, w := range worlds {
		reports[i] = w.rollback(&s.Worlds[i], mode, down, cfgs[i])
	}
	for i, w := range worlds {
		if err := w.replace(reports[i], st.params[st.off[i]:st.off[i+1]], cfgs[i]); err != nil {
			return nil, fmt.Errorf("moe: recover layer %d: %w", i, err)
		}
	}
	for i, w := range worlds {
		w.install(reports[i], cfgs[i], gs[i])
	}
	st.recov = append(st.recov, reports...)
	return reports, nil
}

// recoveryConfig is the configuration and group width the world moves to
// at newR ranks. The strategy stays; a hybrid group keeps the widest width
// that still divides the rank count (the staged contract holds at every
// width), and the node shape the largest width not exceeding the old one
// that divides it.
func (w *World) recoveryConfig(newR int) (WorldConfig, int, error) {
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
	gs, err := widths(cfg)
	if err != nil {
		return cfg, 0, err
	}
	return cfg, gs[0], nil
}

// rollback starts the world's recovery report and rolls the full training
// state back to ws, which checkRestore accepted: parameters, step counter,
// gate RNG. Aborted-plan residue (partial gradients, partial parameter
// writes) dies here.
func (w *World) rollback(ws *ckpt.WorldState, mode RecoveryMode, downRank int, newCfg WorldConfig) *RecoveryReport {
	t0 := time.Now()
	rep := &RecoveryReport{
		Mode:         mode,
		DownRank:     downRank,
		OldRanks:     w.cfg.Ranks,
		NewRanks:     newCfg.Ranks,
		OldStrategy:  w.cfg.Strategy,
		NewStrategy:  newCfg.Strategy,
		OldGroupSize: w.GroupSize(),
		RestoredStep: ws.Steps,
	}
	w.applyRestore(ws)
	rep.RecoveryMS = time.Since(t0).Seconds() * 1e3
	return rep
}

// replace moves the weights of every expert whose owner changes at
// newCfg's rank count to that owner. params is the layer's span of the
// stack's parameter buffer, which the live Param.W views. The world's
// topology is untouched; install sets up the new one.
func (w *World) replace(rep *RecoveryReport, params []float64, newCfg WorldConfig) error {
	t0 := time.Now()
	e, oldEgrp, newR := len(w.layer.cfg.Experts), w.egrp, newCfg.Ranks

	// Every expert whose owner changed under the new contiguous mapping —
	// and the dead rank's whole shard, whose owner index may survive (a dead
	// rank 0's experts stay with rank 0) — receives its restored parameters
	// over a Broadcast from rank 0 (the checkpoint reader), so the recovery
	// traffic is measured. Each attempt consults the injector first, as a
	// plan task does: chaos reaches the broadcasts through
	// KindProb[Broadcast], and a transient is retried within retryBudget.
	newEgrp := e / newR
	for ex := 0; ex < e; ex++ {
		if ex/oldEgrp != ex/newEgrp || ex/oldEgrp == rep.DownRank {
			rep.MovedExperts = append(rep.MovedExperts, ex)
		}
	}
	for _, ex := range rep.MovedExperts {
		// Rank 0, the root, sends from the live span itself.
		span := params[w.gradOff[ex]:w.gradOff[ex+1]]
		bufs := make([][]float64, newR)
		bufs[0] = span
		for r := 1; r < newR; r++ {
			bufs[r] = make([]float64, len(span))
		}
		var st comm.Stats
		for a := 0; ; a++ {
			err := w.faults.Check(recoverStream, sim.KindBroadcast, sim.KindBroadcast, ex, a).Err
			if err == nil {
				st, err = comm.Broadcast(bufs, 0, newCfg.GPUsPerNode)
			}
			if err == nil {
				break
			}
			if !fault.IsTransient(err) || a+1 >= retryBudget.MaxAttempts {
				return fmt.Errorf("moe: recover: broadcast expert %d weights: %w", ex, err)
			}
			rep.Retries++
		}
		rep.Traffic.Merge(st)
		// The new owner's received copy is authoritative.
		copy(span, bufs[ex/newEgrp])
	}
	rep.RecoveryMS += time.Since(t0).Seconds() * 1e3
	return nil
}

// install sets up the topology replace moved the world's weights for: it
// resizes the worker set and the kernel pool to the new stream count,
// installs the new group width, drops the workspace cut for the old one,
// strips the injector's down trigger (the dead rank no longer exists in the
// rebuilt world), and clears the health state exactly as a manual
// ResetHealth would.
func (w *World) install(rep *RecoveryReport, newCfg WorldConfig, g int) {
	t0 := time.Now()
	w.addStats(rep.Traffic)
	w.exec.Close()
	w.pool.Close()
	w.cfg = newCfg
	w.egrp = len(w.layer.cfg.Experts) / newCfg.Ranks
	w.g = g
	w.ws = nil
	w.planResources()
	w.faults = w.faults.WithoutDown()
	w.ResetHealth()

	rep.NewGroupSize = w.GroupSize()
	rep.RecoveryMS += time.Since(t0).Seconds() * 1e3
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
