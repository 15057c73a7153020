// Customgate: extend the framework without touching it (§3.1's
// "modularization and non-invasive modification").
//
// It plugs in (1) a hand-written hash-routing gate implemented purely
// against the public Gate contract, and (2) a compression hook pair that
// halves dispatch payload precision and restores it afterwards — the
// paper's BeforeDispatchHook/AfterDispatchHook example.
//
//	go run ./examples/customgate
package main

import (
	"fmt"
	"log"
	"math"

	"repro/fsmoe"
)

// hashGate routes each token to expert hash(token index) — the classic
// Hash Layers baseline. It has no parameters and no gradient.
type hashGate struct {
	experts int
	topK    int
}

func (g *hashGate) Name() string { return "hash" }

func (g *hashGate) Params() []*fsmoe.Param { return nil }

func (g *hashGate) Route(x *fsmoe.Tensor, train bool) (*fsmoe.DispatchPlan, *fsmoe.RouteCache, error) {
	n := x.Dim(0)
	capacity := (n*g.topK + g.experts - 1) / g.experts
	plan := &fsmoe.DispatchPlan{Experts: g.experts, Capacity: capacity}
	plan.SlotToken = make([][]int, g.experts)
	plan.SlotWeight = make([][]float64, g.experts)
	for e := 0; e < g.experts; e++ {
		plan.SlotToken[e] = make([]int, capacity)
		for s := range plan.SlotToken[e] {
			plan.SlotToken[e][s] = -1
		}
		plan.SlotWeight[e] = make([]float64, capacity)
	}
	next := make([]int, g.experts)
	for t := 0; t < n; t++ {
		for j := 0; j < g.topK; j++ {
			e := (t*2654435761 + j) % g.experts
			if next[e] >= capacity {
				plan.Dropped++
				continue
			}
			plan.SlotToken[e][next[e]] = t
			plan.SlotWeight[e][next[e]] = 1.0 / float64(g.topK)
			next[e]++
		}
	}
	return plan, &fsmoe.RouteCache{X: x, Plan: plan}, nil
}

func (g *hashGate) Backward(dx *fsmoe.Tensor, rc *fsmoe.RouteCache, pg *fsmoe.PlanGrad) {
	// Hash routing is non-parametric: no gradient flows through the gate.
	dx.Zero()
}

// quantize emulates fp16-style compression by rounding mantissas — a
// stand-in for the communication-compression hooks of §3.1.
func quantize(x *fsmoe.Tensor) *fsmoe.Tensor {
	d := x.Data()
	for i, v := range d {
		d[i] = math.Round(v*1024) / 1024
	}
	return x
}

func main() {
	const experts = 4
	layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{
		M: 32, H: 64, Experts: experts, TopK: 2,
		CustomGate: &hashGate{experts: experts, topK: 2},
		Hooks: []fsmoe.Hooks{{
			BeforeDispatch: func(x *fsmoe.Tensor) *fsmoe.Tensor {
				fmt.Println("hook: compressing dispatch payload")
				return quantize(x)
			},
			AfterDispatch: func(x *fsmoe.Tensor) *fsmoe.Tensor {
				fmt.Println("hook: decompressing on the expert side")
				return x
			},
		}},
		Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}

	x := fsmoe.RandTensor(5, 16, 32) // 16 tokens
	y, cache, err := layer.Forward(x, false)
	if err != nil {
		log.Fatal(err)
	}
	layer.Release(cache) // forward-only: hand the workspace and routing back
	fmt.Printf("custom gate %q routed 16 tokens through %d experts -> output %v\n",
		layer.Gate().Name(), experts, y.Shape())
}
