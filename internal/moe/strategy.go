package moe

import (
	"fmt"
)

// Strategy names a parallel execution scheme for World — the §4
// generalized MoE layer's configuration axis made a first-class API
// object. Every name resolves to the same schedule (strategy_plan.go) at
// one expert-sharding group width g: the R ranks form R/g expert-parallel
// groups of g sharding members.
type Strategy string

const (
	// StrategyEP is pure expert parallelism, g = 1: experts are sharded E/R
	// per rank, tokens move to their experts over r-chunked dispatch/combine
	// AlltoAll collectives on the shared inter stream, and each rank
	// computes its expert shard whole. Hard-routing plans only.
	StrategyEP Strategy = "ep"
	// StrategyESP is expert-sharding parallelism, g = R: every rank
	// participates in every expert's compute over a shard of the work, with
	// r-chunked AllGather stages feeding the sharded GEMMs and a
	// ReduceScatter returning each rank's slot rows, all on the one group's
	// intra stream (§4's intra-node collective stages). Hard-routing plans
	// only; experts must implement StagedExpert.
	StrategyESP Strategy = "esp"
	// StrategyDenseSlots runs dense (SoftMoE) plans through the g = 1
	// schedule chunked over expert slots instead of token rows: slots are
	// sharded across ranks, dispatch/combine AlltoAll moves slot rows, and
	// the convex token mixing stays in the replicated gate/order stages —
	// a plan-validation variant, not a data path of its own. Dense plans
	// only.
	StrategyDenseSlots Strategy = "dense-slots"
	// StrategyHybrid is the §4 generalized configuration between the two
	// pure endpoints, g = WorldConfig.GroupSize. Dispatch and combine
	// AlltoAll route tokens *between* groups on the shared inter stream
	// while AllGather/ReduceScatter and the sharded GEMM stages run *within*
	// each group on per-group intra streams. GroupSize 1 is EP's plan and
	// GroupSize R is ESP's — the same builder at the same g. Hard-routing
	// plans only; experts must implement StagedExpert at every group size.
	StrategyHybrid Strategy = "hybrid"
)

// Strategies lists every built-in parallel strategy.
func Strategies() []Strategy {
	return []Strategy{StrategyEP, StrategyESP, StrategyDenseSlots, StrategyHybrid}
}

// placement is a Strategy resolved against a layer and a rank count: what
// the plan builder reads instead of the name.
type placement struct {
	g      int    // expert-sharding group width
	dense  bool   // routes dense (SoftMoE) plans, and only those
	noRows string // why a dense plan cannot run here: it has no token rows to …
}

// place validates the pairing of a layer, a strategy and a rank count at
// NewWorld and Recover time. Errors name the strategy and the unsupported
// combination.
func place(l *MOELayer, cfg WorldConfig) (placement, error) {
	var pl placement
	needNative := ""
	switch cfg.Strategy {
	case StrategyEP:
		pl.g, pl.noRows = 1, "chunk"
	case StrategyDenseSlots:
		pl.g, pl.dense = 1, true
	case StrategyESP:
		pl.g, pl.noRows, needNative = cfg.Ranks, "shard", "requires sharded expert compute"
	case StrategyHybrid:
		// GroupSize must be a divisor of the rank count inside [1, R], and
		// the staged contract holds at every group size, so a layer that
		// validates at one g validates at all of them (the Algorithm-1 grid
		// sweeps g freely, and Recover re-places at gcd(g, R′)).
		r, g := cfg.Ranks, cfg.GroupSize
		if g < 1 || g > r {
			return pl, fmt.Errorf("moe: strategy %q needs GroupSize in [1, %d] (the rank count), got GroupSize=%d",
				StrategyHybrid, r, g)
		}
		if r%g != 0 {
			return pl, fmt.Errorf("moe: strategy %q needs GroupSize dividing the rank count, got %d ranks over GroupSize=%d",
				StrategyHybrid, r, g)
		}
		pl.g, pl.noRows, needNative = g, "route between groups", "requires sharded expert compute at every GroupSize"
	default:
		return pl, fmt.Errorf("moe: unknown parallel strategy %q (valid: %s, %s, %s, %s)",
			cfg.Strategy, StrategyEP, StrategyESP, StrategyDenseSlots, StrategyHybrid)
	}
	if e := l.plain; e >= 0 && needNative != "" {
		return pl, fmt.Errorf("moe: strategy %q %s, but expert %d (%T) does not implement StagedExpert; adapted plain experts compute whole blocks, under strategy %q",
			cfg.Strategy, needNative, e, l.cfg.Experts[e], StrategyEP)
	}
	return pl, nil
}

// planCheck validates each routed dispatch plan before a pass runs: the
// routing kind must be the one the strategy moves.
func (pl placement) planCheck(name Strategy, plan *DispatchPlan) error {
	switch {
	case pl.dense && !plan.IsDense():
		return fmt.Errorf("moe: strategy %q requires a dense (SoftMoE) routing plan; hard top-k gates run under strategy %q or %q",
			name, StrategyEP, StrategyESP)
	case !pl.dense && plan.IsDense():
		return fmt.Errorf("moe: strategy %q supports hard routing only (dense SoftMoE plans have no token rows to %s); dense plans run under strategy %q",
			name, pl.noRows, StrategyDenseSlots)
	}
	return nil
}

// DenseRouter marks gates whose plans use dense (SoftMoE-style) routing.
// Strategy auto-selection uses it to choose StrategyDenseSlots without
// running a routing pass; custom dense gates should implement it.
type DenseRouter interface {
	DenseRouting() bool
}

// DenseRouting implements DenseRouter for the built-in SoftMoE gate.
func (g *SoftMoEGate) DenseRouting() bool { return true }
