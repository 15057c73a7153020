// Clusterschedule: the systems half of the paper — schedule Mixtral-7B
// training on the simulated 48-GPU Testbed A under all six schedulers,
// print the speedup ladder, and render the FSMoE vs Tutel timelines for a
// single layer (Fig. 3 as ASCII).
//
//	go run ./examples/clusterschedule
package main

import (
	"fmt"
	"log"

	"repro/fsmoe"
)

func main() {
	cluster := fsmoe.TestbedA()
	spec := fsmoe.Mixtral7B(cluster)
	fmt.Printf("cluster: Testbed %s (%d nodes × %d GPUs), model: %s × %d layers\n\n",
		cluster.Name, cluster.Nodes, cluster.GPUsPerNode, spec.Name, spec.Layers)

	times, err := fsmoe.CompareSystems(cluster, spec)
	if err != nil {
		log.Fatal(err)
	}
	speedups := fsmoe.Speedups(times, fsmoe.SystemDSMoE)
	fmt.Println("iteration time and speedup over DeepSpeed-MoE:")
	for _, sys := range fsmoe.AllSystems() {
		fmt.Printf("  %-16s %9.1f ms   %.2fx\n", sys, times[sys], speedups[sys])
	}

	// Zoom into one configured layer: where does the win come from?
	cfg := spec.Layer
	cfg.B = 4
	fmt.Printf("\nsingle layer (%s), Tutel then FSMoE:\n\n", cfg.String())
	for _, sys := range []fsmoe.System{fsmoe.SystemTutel, fsmoe.SystemFSMoE} {
		res, err := fsmoe.SimulateLayer(cluster, cfg, sys)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s (fwd degree %d, bwd degree %d) ---\n", sys, res.DegFwd[0], res.DegBwd[0])
		fmt.Print(res.Trace.Gantt(100))
		fmt.Println()
	}

	// Algorithm 1 directly: the optimal pipeline degree differs by phase
	// (the §2.3 motivation).
	s, err := fsmoe.CanonicalScenario(cluster, 1)
	if err != nil {
		log.Fatal(err)
	}
	v := fsmoe.LayerVolumes(cfg, s)
	fwd := fsmoe.OptimalDegree(cluster, v, 0, false)
	bwd := fsmoe.OptimalDegree(cluster, v, 0, true)
	fmt.Printf("Algorithm 1: forward degree %d (%s), backward degree %d (%s)\n",
		fwd.R, fwd.Case.String(), bwd.R, bwd.Case.String())
}
