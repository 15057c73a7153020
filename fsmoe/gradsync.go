package fsmoe

import (
	"repro/internal/gradsync"
	"repro/internal/moe"
)

// Executable gradient-synchronization vocabulary (§5 made real): a stack
// of Worlds runs backward with the Gradient-AllReduce chunked into the
// backward pipelines' inter-stream slack, then steps every rank's
// parameter replica to bit-identical values.
type (
	// StepConfig tunes one overlapped training step (learning rate,
	// strategy, partitioning models, chunk sizes).
	StepConfig = moe.StepConfig
	// StepResult is one measured step: the wall time and its
	// forward/backward/tail parts, the sync report, per-rank post-step
	// parameter replicas, and the backward plans with their embedded
	// AllReduce slices. RankParams are views of stack-owned buffers that
	// the next step or sync on the same worlds overwrites; copy to retain.
	StepResult = moe.StepResult
	// SyncStrategy selects how Gradient-AllReduce is scheduled.
	SyncStrategy = gradsync.Strategy
	// SyncReport is the outcome of a blocking SyncGradients call. Its
	// LayerGrads are views of the same stack-owned buffers as
	// StepResult.RankParams, under the same rule.
	SyncReport = moe.SyncReport
	// GradSyncReport summarizes bytes hidden vs exposed and ring traffic.
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

// Step runs one overlapped training step on a single-layer stack; see
// StepStack.
func (w *World) Step(x, dy *Tensor, cfg StepConfig) (*StepResult, error) {
	return w.inner.Step(x, dy, cfg)
}

// StepStack runs one training step over a stack of Worlds (layer i feeds
// layer i+1): forward, backward in reverse with the §5 Gradient-AllReduce
// overlapped into each backward stream plan per cfg.Strategy and the
// exposed tail, every AllReduce slice applying the SGD update to what it
// reduced. The step's expert gradients live in the stack's resident
// buffers, not in Param.G. The AllReduce sums each rank's disjoint
// partial contribution, reconstructing the full-batch gradient exactly
// (no 1/R scaling — the per-rank partials already split one batch), so
// every rank ends with bit-identical parameters under every strategy;
// only the measured wall time differs. The §5 byte plan is solved on the
// first step and again only when the sync configuration or a layer's
// shapes change; see "Training steps and resident state" in the package
// documentation for what the stack keeps between steps and who owns it.
func StepStack(worlds []*World, x, dy *Tensor, cfg StepConfig) (*StepResult, error) {
	return moe.StepWorlds(inners(worlds), x, dy, cfg)
}

// SyncGradients synchronizes the parameter gradients accumulated in Param.G
// by the Forward/Backward calls the caller drove, immediately (no overlap): each rank's partial gradients — its expert
// shard plus its disjoint share of the dense gate gradient — are
// ring-reduced in real chunked collectives until every rank holds the
// identical full-batch gradient. Use StepStack to hide the same work
// inside the backward pipelines instead.
func SyncGradients(worlds []*World, cfg StepConfig) (*SyncReport, error) {
	return moe.SyncWorlds(inners(worlds), cfg)
}

func inners(worlds []*World) []*moe.World {
	out := make([]*moe.World, len(worlds))
	for i, w := range worlds {
		out[i] = w.inner
	}
	return out
}
