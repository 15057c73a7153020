package fsmoe

// Checkpoint/restore and elastic recovery: the facade over internal/ckpt
// (crash-consistent, checksummed snapshot files) and the moe world's
// rollback-based rebuild after a permanent rank loss. A training loop
// checkpoints by setting StepConfig.Checkpoint; after a rank dies it
// calls Recover with the latest snapshot and keeps stepping on the
// surviving topology — bit-identically to a fresh run restarted from the
// same checkpoint there.

import (
	"repro/internal/ckpt"
	"repro/internal/moe"
)

type (
	// Snapshot is a whole training stack's checkpointed state: one
	// WorldState per layer plus the completed-step stamp.
	Snapshot = ckpt.Snapshot
	// WorldState is one world's full mutable training state — gate and
	// per-expert parameters, step and collective counters, gate RNG.
	WorldState = ckpt.WorldState
	// CheckpointManager writes and reads snapshot files in a directory:
	// atomic (temp + fsync + rename), checksummed, versioned, optionally
	// pruned to the newest Keep files. Start commits in the background, at
	// most one commit in flight; Wait (and Save, List, Latest, LoadLatest)
	// drain it.
	CheckpointManager = ckpt.Manager
	// RecoveryPolicy configures Recover; the zero value shrinks onto the
	// surviving ranks.
	RecoveryPolicy = moe.RecoveryPolicy
	// RecoveryMode selects how the world is rebuilt around the dead rank.
	RecoveryMode = moe.RecoveryMode
	// RecoveryReport describes one world's completed recovery: the
	// topology transition, the experts whose weights were re-placed, the
	// broadcast traffic, and the rebuild wall time (MTTR).
	RecoveryReport = moe.RecoveryReport
)

// Recovery modes.
const (
	// RecoverShrink rebuilds on the surviving ranks: one rank count for
	// the whole stack, the largest below the old one that divides every
	// layer's expert count.
	RecoverShrink = moe.RecoverShrink
	// RecoverRejoin keeps the rank count: the dead rank is replaced and
	// its expert shard restored from the checkpoint.
	RecoverRejoin = moe.RecoverRejoin
)

// Typed checkpoint errors (errors.Is-matchable): a damaged or foreign
// snapshot file fails loudly instead of restoring garbage, and a
// background commit that failed surfaces as ErrCheckpointCommit.
var (
	ErrCheckpointTruncated = ckpt.ErrTruncated
	ErrCheckpointChecksum  = ckpt.ErrChecksum
	ErrCheckpointMalformed = ckpt.ErrMalformed
	ErrCheckpointBadMagic  = ckpt.ErrBadMagic
	ErrCheckpointVersion   = ckpt.ErrVersion
	ErrNoCheckpoint        = ckpt.ErrNoCheckpoint
	ErrCheckpointCommit    = ckpt.ErrCommit
)

// Checkpoint captures a stack's full training state — every layer's
// parameters, counters and gate RNG — as one Snapshot, deep-copied so
// later steps never alias into it. Persist it with a CheckpointManager
// (or let StepConfig.Checkpoint do both on a cadence).
func Checkpoint(worlds []*World) *Snapshot { return moe.SnapshotWorlds(inners(worlds)) }

// Restore writes a snapshot back into a stack, layer by layer, rolling
// parameters, counters and gate RNG back to the checkpoint point. The
// stack's topology must match the snapshot's layer shapes; mismatches
// fail before anything is written.
func Restore(worlds []*World, s *Snapshot) error { return moe.RestoreWorlds(inners(worlds), s) }

// Recover rebuilds a stack around its permanently failed rank from a
// snapshot: state rolls back to the checkpoint, the dead rank's experts
// are re-assigned (shrink) or re-seeded onto a replacement (rejoin) with
// their restored weights broadcast to the new owners, the strategy
// re-emits its collective chains for the new placement (every strategy
// recovers as itself), and the injector's down trigger is stripped so
// stepping resumes at full strength. Every layer is checked against its
// snapshot and its new placement before any is rolled back. Post-recovery
// steps are bit-identical to a fresh run restarted from the same checkpoint
// on the same topology.
func Recover(worlds []*World, s *Snapshot, pol RecoveryPolicy) ([]*RecoveryReport, error) {
	return moe.RecoverWorlds(inners(worlds), s, pol)
}

// Snapshot captures this single world's training state; see Checkpoint.
func (w *World) Snapshot() *WorldState { return w.inner.Snapshot() }

// Restore writes a single-world snapshot back; see Restore.
func (w *World) Restore(ws *WorldState) error { return w.inner.Restore(ws) }

// Recover rebuilds this single world around its failed rank; see Recover.
func (w *World) Recover(ws *WorldState, pol RecoveryPolicy) (*RecoveryReport, error) {
	return w.inner.Recover(ws, pol)
}

// LastRecovery returns the world's most recent recovery report, or nil.
func (w *World) LastRecovery() *RecoveryReport { return w.inner.LastRecovery() }
