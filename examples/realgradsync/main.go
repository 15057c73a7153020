// Realgradsync: the §5 Gradient-AllReduce running for real. A 3-layer
// MoE stack steps across 4 in-process ranks; the backward pass of each
// layer hides AllReduce slices of the later layers' gradients in its
// inter-stream slack (FSMoE's adaptive plan). Each slice steps its part
// of the one copy of the parameters in place, so the step ends with
// parameters bit-identical to the fully exposed no-overlap baseline's.
//
//	go run ./examples/realgradsync
package main

import (
	"fmt"
	"log"

	"repro/fsmoe"
)

const (
	layers = 3
	ranks  = 4
	m, h   = 32, 48
	tokens = 96
)

// stack builds the worlds and returns them with their layers' parameters.
func stack() ([]*fsmoe.World, []*fsmoe.Param) {
	ws := make([]*fsmoe.World, layers)
	var params []*fsmoe.Param
	for i := range ws {
		layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{
			M: m, H: h, Experts: 8, TopK: 2, CapacityFactor: 1.25, Seed: uint64(7 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		params = append(params, layer.Params()...)
		// StrategyEP pins the dispatch/combine AlltoAll pipeline, whose
		// inter-stream slack is what the Gantt chart below shows the
		// AllReduce slices filling (see examples/strategies for the other
		// parallel schemes).
		ws[i], err = fsmoe.NewWorld(layer, fsmoe.WorldConfig{
			Ranks: ranks, PipelineDegree: 2, Strategy: fsmoe.StrategyEP,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	return ws, params
}

func main() {
	x := fsmoe.RandTensor(201, tokens, m)
	dy := fsmoe.RandTensor(202, tokens, m)

	var ref []float64
	for _, strat := range []fsmoe.SyncStrategy{fsmoe.SyncNoOverlap, fsmoe.SyncFSMoE} {
		ws, params := stack()
		res, err := fsmoe.StepStack(ws, x, dy, fsmoe.StepConfig{LR: 0.05, Strategy: strat})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("strategy %-16s hidden %6.0f KB  tail %6.0f KB  (%d overlapped slices)\n",
			strat, res.Report.HiddenBytes/1024, res.Report.TailBytes/1024, res.Report.Slices)

		// The step's one parameter row must be the live parameters, and both
		// strategies must agree bit for bit.
		k := 0
		for _, p := range params {
			for _, v := range p.W.Data() {
				if res.RankParams[0][k] != v {
					log.Fatalf("parameter %d: step result %v, live %v", k, res.RankParams[0][k], v)
				}
				k++
			}
		}
		if k != len(res.RankParams[0]) {
			log.Fatalf("step result holds %d parameters, the layers %d", len(res.RankParams[0]), k)
		}
		if ref == nil {
			ref = res.RankParams[0]
		} else {
			for k := range ref {
				if res.RankParams[0][k] != ref[k] {
					log.Fatalf("strategies disagree at parameter %d", k)
				}
			}
			// The last plan in backward order belongs to layer 0 — the one
			// whose slack absorbed the later layers' AllReduce slices.
			fmt.Println("\nlayer 0 backward timeline (AllReduce slices share the inter stream):")
			fmt.Print(res.Traces[len(res.Traces)-1].Gantt(100))
		}
	}
	fmt.Printf("\nboth strategies step the one copy of the %d parameters to bit-identical values ✓\n", len(ref))
}
