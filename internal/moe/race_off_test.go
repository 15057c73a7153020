//go:build !race

package moe

// stepLayerSlack is TestStepAllocationBound's per-layer byte allowance on
// the token stack: 1.5× the most any of 600 runs read. With the plans
// resident and replayed, a warm step allocated 3 760 bytes per layer in 568
// of those runs and 3 808–4 208 in the rest: the expert passes Begin makes,
// the §5 Syncer's slice lists, the closures Order and the gate hand
// ParallelRange, and each execution's context and worker start. Before,
// plan construction took 30–31 KiB per layer, and a GEMM scratch buffer met
// at a new concurrency peak, or a gate temporary that missed tensor.Get's
// free-list on an executor worker's processor, added 16–47 KiB.
const stepLayerSlack = 6400
