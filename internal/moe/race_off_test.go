//go:build !race

package moe

// stepLayerSlack is TestStepAllocationBound's per-layer byte allowance on
// the token stack: measured 30–39 KiB per layer over 33 runs, with a margin
// of about 1.6×.
const stepLayerSlack = 64 << 10
