//go:build !race

package moe

const stepLayerSlack = 128 << 10
