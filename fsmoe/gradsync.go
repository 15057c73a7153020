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
	// strategy, chunk sizes, checkpoints). Its §5 partition plans on the
	// same cost model as NewWorld's Algorithm 1.
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
	// GradSyncReport summarizes bytes hidden vs exposed and sync traffic.
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
// carries. The step's expert gradients live in the stack's resident
// buffers, not in Param.G. Every gradient element has one contributor, its
// owner rank, so the sync is an owner gather: each slice is stepped once,
// on its owner (no 1/R scaling — the per-rank gradients already split one
// batch), and broadcast to every other rank, so every rank ends with
// bit-identical parameters under every strategy; only the measured wall
// time differs. The §5 byte plan is solved on the
// first step and again only when the sync configuration or a layer's
// shapes change; see "Training steps and resident state" in the package
// documentation for what the stack keeps between steps and who owns it.
func StepStack(worlds []*World, x, dy *Tensor, cfg StepConfig) (*StepResult, error) {
	return moe.StepWorlds(worlds, x, dy, cfg)
}

// SyncGradients synchronizes the parameter gradients accumulated in Param.G
// by the Forward/Backward calls the caller drove, immediately (no overlap):
// each rank's owned spans — its expert shard and a disjoint shard of the
// gate gradient — are broadcast in real chunked collectives until every rank holds the
// identical full-batch gradient. Use StepStack to hide the same work
// inside the backward pipelines instead.
func SyncGradients(worlds []*World, cfg StepConfig) (*SyncReport, error) {
	return moe.SyncWorlds(worlds, cfg)
}
