// Chaos: run the executable multi-rank runtime under seeded fault
// injection — transient collective failures retried at once, a
// straggling stream, and finally a permanent rank-down survived in
// degraded mode.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"

	"repro/fsmoe"
)

func main() {
	layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{
		M: 64, H: 128, Experts: 8, TopK: 2, CapacityFactor: 1.2, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	world, err := fsmoe.NewWorld(layer, fsmoe.WorldConfig{
		Ranks: 4, PipelineDegree: 2, BatchTokens: 256,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	x := fsmoe.RandTensor(7, 256, 64)
	dy := fsmoe.RandTensor(8, 256, 64)
	pass := func() (*fsmoe.Tensor, error) {
		layer.ZeroGrad()
		y, cache, err := world.Forward(x, false)
		if err != nil {
			return nil, err
		}
		if _, err := world.Backward(cache, dy); err != nil {
			return nil, err
		}
		return y, nil
	}

	// 1. A clean pass: the fault-free reference.
	ref, err := pass()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clean pass: ok")

	// 2. Chaos: transient faults on every collective kind, plus stragglers,
	// drawn before each task attempt runs. Every decision is a pure
	// function of the seed, the task and the attempt, so this run is
	// reproducible under any stream interleaving.
	world.SetFaultPlan(fsmoe.NewFaultPlan(fsmoe.FaultSpec{
		Seed: 11,
		KindProb: map[string]float64{
			fsmoe.KindAlltoAll:      0.4,
			fsmoe.KindAllGather:     0.4,
			fsmoe.KindReduceScatter: 0.4,
		},
		MaxTransientsPerTask: 2, // under the 4-attempt retry budget: recovery guaranteed
		StragglerProb:        0.15,
	}))
	y, err := pass()
	if err != nil {
		log.Fatal(err)
	}
	tr := world.LastTrace() // the backward plan's measured trace
	fmt.Printf("chaos pass: ok — backward plan saw %d faults, %d retries, %d stragglers\n",
		tr.EventCount(fsmoe.EventFault), tr.EventCount(fsmoe.EventRetry), tr.EventCount(fsmoe.EventStraggler))
	for _, ev := range tr.Events {
		fmt.Printf("  [%s] %s kind=%s stream=%s attempt=%d %s\n",
			ev.Type, ev.Label, ev.Kind, ev.Stream, ev.Attempt, ev.Detail)
	}
	if !y.SameBits(ref) {
		log.Fatal("chaos pass diverged from the clean pass")
	}
	fmt.Println("chaos pass output is bit-identical to the clean pass")
	fmt.Println("\nbackward schedule under injection (faulted tasks retried in place):")
	fmt.Print(tr.Gantt(100))

	// 3. A permanent rank failure mid-forward: the pass completes degraded
	// instead of aborting — the dead rank's tokens are re-routed into
	// surviving experts' free capacity, dead experts freeze.
	world.SetFaultPlan(fsmoe.NewFaultPlan(fsmoe.FaultSpec{
		Seed: 12,
		Down: &fsmoe.FaultDown{Rank: 2, Kind: fsmoe.KindExperts},
	}))
	if _, err := pass(); err != nil {
		log.Fatal(err)
	}
	deg := world.LastDegraded()
	fmt.Printf("\nrank %d down (%s phase): lost experts %v, %d tokens re-routed, %d dropped, recovery %.1f ms\n",
		deg.Rank, deg.Phase, deg.LostExperts, deg.ReroutedTokens, deg.DroppedTokens, deg.RecoveryMS)
	fmt.Printf("health: %v\n", world.Health())

	// 4. The dead rank stays down until the operator restores it; then the
	// world is back at full strength, bit-identical to the clean pass.
	world.SetFaultPlan(nil)
	world.ResetHealth()
	y2, err := pass()
	if err != nil {
		log.Fatal(err)
	}
	if !y2.SameBits(ref) {
		log.Fatal("post-recovery pass diverged from the clean pass")
	}
	fmt.Println("after ResetHealth: full-strength pass restored, bit-identical to the clean pass")
}
