//go:build !race

package moe

const stepLayerSlack = 256 << 10
