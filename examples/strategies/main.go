// Strategies: the pluggable parallelism of the executable world. One
// layer runs under expert parallelism (EP: chunked AlltoAll on the inter
// stream) and expert-sharding parallelism (ESP: chunked AllGather /
// ReduceScatter on the intra stream) with bit-identical results, and a
// SoftMoE layer under StrategyAuto goes through the same group-width grid
// as a hard-routing one: it resolves to EP, its plans chunked over expert
// slots.
//
//	go run ./examples/strategies
package main

import (
	"fmt"
	"log"

	"repro/fsmoe"
)

const (
	ranks  = 4
	m, h   = 32, 48
	tokens = 96
)

func hardLayer() *fsmoe.Layer {
	l, err := fsmoe.NewLayer(fsmoe.LayerConfig{
		M: m, H: h, Experts: 8, TopK: 2, CapacityFactor: 1.25, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	return l
}

func main() {
	x := fsmoe.RandTensor(301, tokens, m)
	dy := fsmoe.RandTensor(302, tokens, m)

	// Reference: the single-process layer.
	ref := hardLayer()
	wantY, cache, err := ref.Forward(x, false)
	if err != nil {
		log.Fatal(err)
	}
	wantDx, err := ref.Backward(cache, dy)
	if err != nil {
		log.Fatal(err)
	}

	// The same layer under both hard-routing strategies: different
	// collectives, different streams, identical bits.
	for _, strat := range []fsmoe.Strategy{fsmoe.StrategyEP, fsmoe.StrategyESP} {
		layer := hardLayer()
		w, err := fsmoe.NewWorld(layer, fsmoe.WorldConfig{
			Ranks: ranks, PipelineDegree: 2, Strategy: strat,
		})
		if err != nil {
			log.Fatal(err)
		}
		y, wc, err := w.Forward(x, false)
		if err != nil {
			log.Fatal(err)
		}
		dx, err := w.Backward(wc, dy)
		if err != nil {
			log.Fatal(err)
		}
		if !y.SameBits(wantY) || !dx.SameBits(wantDx) {
			log.Fatalf("strategy %s diverged from the reference layer", strat)
		}
		kinds := map[string]int{}
		for _, iv := range w.LastTrace().Intervals {
			kinds[iv.Task.Kind]++
		}
		fmt.Printf("strategy %-12s bit-identical ✓  backward collectives: AlltoAll=%d AllGather=%d ReduceScatter=%d\n",
			w.Strategy(), kinds[fsmoe.KindAlltoAll], kinds[fsmoe.KindAllGather], kinds[fsmoe.KindReduceScatter])
	}

	// Dense routing: StrategyAuto prices SoftMoE's slot rows on the same
	// (g × r) grid and picks g = 1, EP, whose plan chunks over expert slots
	// instead of token rows.
	soft, err := fsmoe.NewLayer(fsmoe.LayerConfig{
		M: m, H: h, Experts: 8, TopK: 1, CapacityFactor: 1,
		Gate: fsmoe.GateSoftMoE, SlotsPerExpert: 3, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	sw, err := fsmoe.NewWorld(soft, fsmoe.WorldConfig{Ranks: ranks, PipelineDegree: 2})
	if err != nil {
		log.Fatal(err)
	}
	y, _, err := sw.Forward(x, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strategy %-12s auto-selected for SoftMoE; dense forward output %v ✓\n",
		sw.Strategy(), y.Shape())
}
