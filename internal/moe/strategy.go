package moe

// Strategy names a parallel execution scheme for World — the §4
// generalized MoE layer's configuration axis made a first-class API
// object. Every name resolves to the same schedule (strategy_plan.go) at
// one expert-sharding group width g: the R ranks form R/g expert-parallel
// groups of g sharding members. Every strategy runs hard (top-k) and dense
// (SoftMoE) routing plans alike.
type Strategy string

const (
	// StrategyAuto (the zero value) lets NewWorld pick the group width
	// from the layer (planner.go): every router, hard or dense, runs the
	// 2-D Algorithm-1 grid over (group width × pipeline degree), and the
	// winner is named — StrategyEP at g = 1, StrategyESP at g = R, and
	// StrategyHybrid with that GroupSize between.
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
	// StrategyDenseSlots is EP's g = 1 schedule under the name of its dense
	// use: over a dense (DenseRouter) plan the chunks and the
	// dispatch/combine AlltoAll cut expert slot rows, and the convex token
	// mixing stays in the replicated gate/order stages. The planner never
	// picks it (StrategyAuto names g = 1 StrategyEP); it is accepted and
	// reported as configured.
	StrategyDenseSlots Strategy = "dense-slots"
	// StrategyHybrid is the §4 generalized configuration between the two
	// pure endpoints, g = WorldConfig.GroupSize. Dispatch and combine
	// AlltoAll route tokens *between* groups on the shared inter stream
	// while AllGather/ReduceScatter and the sharded GEMM stages run *within*
	// each group on per-group intra streams. GroupSize 1 is EP's plan and
	// GroupSize R is ESP's — the same builder at the same g.
	StrategyHybrid Strategy = "hybrid"
)

// DenseRouter marks gates whose plans use dense (SoftMoE-style) routing.
// The planner's volumes read it without running a routing pass; custom
// dense gates should implement it.
type DenseRouter interface {
	DenseRouting() bool
}

// DenseRouting implements DenseRouter for the built-in SoftMoE gate.
func (g *SoftMoEGate) DenseRouting() bool { return true }
