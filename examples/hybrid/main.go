// Hybrid: the nested EP×ESP strategy. Four ranks split into two EP
// groups of two ESP shard members each: dispatch/combine AlltoAll runs
// between groups on the inter stream while each group's AllGather /
// ReduceScatter stages run on its own intra stream — one schedule
// carrying both collective families, bit-identical to the single-process
// layer. The group size is a tuning knob: g=1 degenerates to pure EP and
// g=ranks to pure ESP (one builder reads g as data, so the edges ARE the
// pure strategies' plans — g=ranks is one group on one intra stream), and
// leaving GroupSize unset lets the 2-D Algorithm-1 grid over (group size ×
// pipeline degree) pick it.
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/fsmoe"
)

const (
	ranks  = 4
	m, h   = 32, 48
	tokens = 96
)

func layer() *fsmoe.Layer {
	l, err := fsmoe.NewLayer(fsmoe.LayerConfig{
		M: m, H: h, Experts: 8, TopK: 2, CapacityFactor: 1.25, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	return l
}

func main() {
	x := fsmoe.RandTensor(401, tokens, m)
	dy := fsmoe.RandTensor(402, tokens, m)

	// Reference: the single-process layer.
	ref := layer()
	wantY, cache, err := ref.Forward(x, false)
	if err != nil {
		log.Fatal(err)
	}
	wantDx, err := ref.Backward(cache, dy)
	if err != nil {
		log.Fatal(err)
	}

	// The full group-size axis: g=1 (≡ EP), g=2 (genuinely nested), and
	// g=4 (≡ ESP) — all bit-identical to the reference.
	for _, g := range []int{1, 2, 4} {
		l := layer()
		w, err := fsmoe.NewWorld(l, fsmoe.WorldConfig{
			Ranks: ranks, PipelineDegree: 2, Strategy: fsmoe.StrategyHybrid, GroupSize: g,
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
			log.Fatalf("hybrid g=%d diverged from the reference layer", g)
		}
		kinds := map[string]int{}
		groupStreams := map[string]bool{}
		for _, iv := range w.LastTrace().Intervals {
			kinds[iv.Task.Kind]++
			if strings.HasPrefix(iv.Task.Stream, "intra:g") {
				groupStreams[iv.Task.Stream] = true
			}
		}
		fmt.Printf("hybrid g=%d bit-identical ✓  backward: AlltoAll=%d AllGather=%d ReduceScatter=%d on %d per-group stream(s)\n",
			g, kinds[fsmoe.KindAlltoAll], kinds[fsmoe.KindAllGather], kinds[fsmoe.KindReduceScatter], len(groupStreams))
	}

	// Unset GroupSize: the 2-D Algorithm-1 grid picks the group size and
	// the per-phase pipeline degrees together.
	l := layer()
	w, err := fsmoe.NewWorld(l, fsmoe.WorldConfig{
		Ranks: ranks, Strategy: fsmoe.StrategyHybrid, BatchTokens: tokens,
	})
	if err != nil {
		log.Fatal(err)
	}
	f, b := w.PipelineDegrees()
	fmt.Printf("2-D grid pick for this layer: g=%d, degrees r=%d/%d (of the divisors of %d ranks)\n",
		w.GroupSize(), f, b, ranks)
}
