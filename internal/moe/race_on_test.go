//go:build race

package moe

// stepLayerSlack is TestStepAllocationBound's per-layer byte allowance on
// the token stack. Under -race sync.Pool drops a quarter of what it is
// handed, so a warm step re-allocates some pooled GEMM temporaries: measured
// 12–29 KiB per layer over 30 runs, with a margin of about 2×.
const stepLayerSlack = 64 << 10
