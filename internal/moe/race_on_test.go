//go:build race

package moe

// stepLayerSlack is TestStepAllocationBound's per-layer byte allowance on
// the token stack. Under -race sync.Pool drops a quarter of what it is
// handed, so a warm step re-allocates some pooled GEMM temporaries.
const stepLayerSlack = 256 << 10
