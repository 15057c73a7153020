//go:build !race

package moe

// stepLayerSlack is TestStepAllocationBound's per-layer byte allowance on
// the token stack: 1.5× the most any of 600 runs read. With the plans
// resident and replayed and the §5 schedule solved once as data, a warm
// step allocated 2 964 bytes per layer in 584 of those runs and 3 012–3 412
// in the rest: the expert passes Begin makes, the closures Order and the
// gate hand ParallelRange, and each execution's context and worker start.
// Before, the per-step §5 slice lists added 796 bytes per layer, and plan
// construction took 30–31 KiB per layer; a GEMM scratch buffer met at a new
// concurrency peak, or a gate temporary that missed tensor.Get's free-list
// on an executor worker's processor, added 16–47 KiB.
const stepLayerSlack = 5120
