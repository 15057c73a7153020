// Quickstart: build an MoE layer from the public API, run a forward and a
// backward pass on real data, and inspect the routing.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/fsmoe"
)

func main() {
	// An 8-expert layer with GShard noisy top-2 routing, Tutel sparse
	// ordering and GPT-style feed-forward experts (§3.1's defaults).
	layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{
		M:              64,
		H:              256,
		Experts:        8,
		TopK:           2,
		CapacityFactor: 1.2,
		Gate:           fsmoe.GateGShard,
		Order:          fsmoe.OrderTutel,
		Expert:         fsmoe.ExpertGPT,
		Seed:           42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A batch of 4 sequences × 32 tokens × 64 features.
	x := fsmoe.RandTensor(7, 4, 32, 64)
	y, cache, err := layer.Forward(x, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forward:  input %v -> output %v\n", x.Shape(), y.Shape())

	// Backward with a synthetic output gradient; every gate and expert
	// parameter receives its gradient.
	dy := fsmoe.RandTensor(8, 4, 32, 64)
	dx, err := layer.Backward(cache, dy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backward: dX %v\n", dx.Shape())

	nonzero := 0
	for _, p := range layer.Params() {
		for _, g := range p.G.Data() {
			if g != 0 {
				nonzero++
				break
			}
		}
	}
	fmt.Printf("parameters with gradients: %d / %d\n", nonzero, len(layer.Params()))

	// A plain SGD step, to show the layer trains like any other module.
	const lr = 1e-2
	for _, p := range layer.Params() {
		w, g := p.W.Data(), p.G.Data()
		for i := range w {
			w[i] -= lr * g[i]
		}
	}
	layer.ZeroGrad()
	y2, cache2, err := layer.Forward(x, false)
	if err != nil {
		log.Fatal(err)
	}
	// An evaluation pass drives no Backward: Release hands the layer's
	// workspace and the gate's routing scratch back for the next Forward.
	layer.Release(cache2)
	fmt.Printf("after one SGD step the output changed by max |Δ| = %.4g\n", y.MaxAbsDiff(y2))
}
