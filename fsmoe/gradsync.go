package fsmoe

import (
	"repro/internal/gradsync"
	"repro/internal/moe"
)

// Executable gradient-synchronization vocabulary (§5 made real): a stack
// of Worlds runs backward with the Gradient-AllReduce chunked into the
// backward pipelines' inter-stream slack, and each slice steps its part of
// the parameters: one copy, stepped in place.
type (
	// StepConfig tunes one overlapped training step (learning rate,
	// strategy, chunk sizes, checkpoints). Its §5 partition plans on the
	// same cost model as NewWorld's Algorithm 1.
	StepConfig = moe.StepConfig
	// StepResult is one measured step: the wall time and its
	// forward/backward/tail parts, the sync report, the post-step
	// parameters (RankParams, one row), and the backward plans with their
	// embedded AllReduce slices. RankParams is the stack-owned parameter
	// buffer the live Param.W view, which the next step on the same worlds
	// overwrites; copy to retain.
	StepResult = moe.StepResult
	// SyncStrategy selects how Gradient-AllReduce is scheduled.
	SyncStrategy = gradsync.Strategy
	// SyncReport is the outcome of a blocking SyncGradients call. Its
	// LayerGrads, one flat gradient per layer, are views of the stack-owned
	// gradient buffer the live Param.G view, under the same rule as
	// StepResult.RankParams.
	SyncReport = moe.SyncReport
	// GradSyncReport summarizes bytes hidden vs exposed and the tail's
	// wall time.
	GradSyncReport = gradsync.Report
)

// The three gradient-synchronization strategies the executable runtime
// compares (§5 vs the paper's baselines).
const (
	// SyncFSMoE adaptively partitions the gradients into each layer's
	// backward slack via core.PartitionGradients (§5).
	SyncFSMoE = gradsync.StrategyFSMoE
	// SyncLinaFixed launches fixed-size chunks as soon as gradients
	// exist, slack or not (Lina, §6.4; 30 MB chunks by default).
	SyncLinaFixed = gradsync.StrategyFixedChunk
	// SyncNoOverlap synchronizes everything after backward — the fully
	// exposed tail.
	SyncNoOverlap = gradsync.StrategyNoOverlap
)

// StepStack runs one training step over a stack of Worlds (layer i feeds
// layer i+1): forward, backward in reverse with the §5 gradient sync
// overlapped into each backward stream plan per cfg.Strategy and the
// exposed tail, every sync slice applying the SGD update to what it
// carries. The step leaves its gradient in Param.G and the stepped
// parameters in Param.W, both views of the stack's resident buffers. Every
// gradient element has one contributor, and
// the parameters live once: one copy, stepped in place, each slice's
// elements once (no 1/R scaling — the per-rank gradients already split one
// batch). So the parameters are bit-identical under every strategy; only
// the measured wall time differs. The §5 byte
// plan is solved on the first step and again only when the sync
// configuration or a layer's shapes change; see "Training steps and
// resident state" in the package documentation for what the stack keeps
// between steps and who owns it.
//
// StepResult.Y and StepResult.DX are stack-owned like RankParams: valid
// until the next StepStack on the same worlds. An x or dy that shares
// memory with them fails; pass a Clone.
func StepStack(worlds []*World, x, dy *Tensor, cfg StepConfig) (*StepResult, error) {
	return moe.StepWorlds(worlds, x, dy, cfg)
}

// SyncGradients synchronizes the parameter gradients accumulated in Param.G
// by the Forward/Backward calls the caller drove, immediately (no overlap).
// Every Param.G is a view of the stack's one gradient buffer (the first
// call on a stack moves them there), so the buffer already holds the
// full-batch gradient, one copy, and is synchronized in place. Use StepStack
// to hide the same sync inside the backward pipelines instead.
func SyncGradients(worlds []*World, cfg StepConfig) (*SyncReport, error) {
	return moe.SyncWorlds(worlds, cfg)
}
