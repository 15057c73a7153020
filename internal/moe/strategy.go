package moe

import (
	"fmt"
)

// Strategy names a parallel execution scheme for World — the §4
// generalized MoE layer's configuration axis made a first-class API
// object. Every name resolves to the same schedule (strategy_plan.go) at
// one expert-sharding group width g: the R ranks form R/g expert-parallel
// groups of g sharding members. Every strategy runs hard (top-k) and dense
// (SoftMoE) routing plans alike.
type Strategy string

const (
	// StrategyAuto (the zero value) lets NewWorld pick the strategy from
	// the layer (planner.go): dense-routing gates get StrategyDenseSlots,
	// and hard-routing layers run the 2-D Algorithm-1 grid over (group
	// size × pipeline degree) — its g=1 edge is pure EP, its g=R edge pure
	// ESP, and an interior winner selects StrategyHybrid with that
	// GroupSize.
	StrategyAuto Strategy = ""
	// StrategyEP is pure expert parallelism, g = 1: experts are sharded E/R
	// per rank, tokens move to their experts over r-chunked dispatch/combine
	// AlltoAll collectives on the shared inter stream, and each rank
	// computes its expert shard whole.
	StrategyEP Strategy = "ep"
	// StrategyESP is expert-sharding parallelism, g = R: every rank
	// participates in every expert's compute over a shard of the work, with
	// r-chunked AllGather stages feeding the sharded GEMMs and a
	// ReduceScatter returning each rank's slot rows, all on the one group's
	// intra stream (§4's intra-node collective stages).
	StrategyESP Strategy = "esp"
	// StrategyDenseSlots is EP's g = 1 schedule under the name StrategyAuto
	// gives dense routers (DenseRouter): over a dense plan the chunks and
	// the dispatch/combine AlltoAll cut expert slot rows, and the convex
	// token mixing stays in the replicated gate/order stages.
	StrategyDenseSlots Strategy = "dense-slots"
	// StrategyHybrid is the §4 generalized configuration between the two
	// pure endpoints, g = WorldConfig.GroupSize. Dispatch and combine
	// AlltoAll route tokens *between* groups on the shared inter stream
	// while AllGather/ReduceScatter and the sharded GEMM stages run *within*
	// each group on per-group intra streams. GroupSize 1 is EP's plan and
	// GroupSize R is ESP's — the same builder at the same g.
	StrategyHybrid Strategy = "hybrid"
)

// place resolves a strategy against a rank count to its expert-sharding
// group width g, the one thing the plan builder reads, at NewWorld and
// Recover time. Errors name the strategy and the unsupported combination.
func place(cfg WorldConfig) (g int, err error) {
	switch cfg.Strategy {
	case StrategyEP, StrategyDenseSlots:
		return 1, nil
	case StrategyESP:
		return cfg.Ranks, nil
	case StrategyHybrid:
		// GroupSize must be a divisor of the rank count inside [1, R]; the
		// expert contract holds at every group size, so the Algorithm-1 grid
		// sweeps g freely, and Recover re-places at gcd(g, R′).
		r, g := cfg.Ranks, cfg.GroupSize
		if g < 1 || g > r {
			return 0, fmt.Errorf("moe: strategy %q needs GroupSize in [1, %d] (the rank count), got GroupSize=%d",
				StrategyHybrid, r, g)
		}
		if r%g != 0 {
			return 0, fmt.Errorf("moe: strategy %q needs GroupSize dividing the rank count, got %d ranks over GroupSize=%d",
				StrategyHybrid, r, g)
		}
		return g, nil
	}
	return 0, fmt.Errorf("moe: unknown parallel strategy %q (valid: %s, %s, %s, %s)",
		cfg.Strategy, StrategyEP, StrategyESP, StrategyDenseSlots, StrategyHybrid)
}

// DenseRouter marks gates whose plans use dense (SoftMoE-style) routing.
// Strategy auto-selection and the planner's volumes read it without
// running a routing pass; custom dense gates should implement it.
type DenseRouter interface {
	DenseRouting() bool
}

// DenseRouting implements DenseRouter for the built-in SoftMoE gate.
func (g *SoftMoEGate) DenseRouting() bool { return true }
