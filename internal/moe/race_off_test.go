//go:build !race

package moe

// stepLayerSlack is TestStepAllocationBound's per-layer byte allowance on
// the token stack: measured 30–31 KiB per layer in 351 of 370 runs (median
// 30.0 KiB). A run whose measured step meets a wider concurrency peak of the
// GEMMs' windowed scratch (tensor.takeScratch, 27–32 KiB a buffer) than its
// warm-up steps did, or a tensor free-list miss, reads more: 32–47 KiB in 16
// of those runs and 59–105 KiB in 3, two of them over this allowance.
const stepLayerSlack = 64 << 10
