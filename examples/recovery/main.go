// Recovery: survive a permanent rank loss and keep training. A 2-layer
// stack checkpoints every step through the atomic, checksummed manager;
// a seeded injector then kills a rank permanently mid-run; the stack
// recovers from the latest snapshot — state rolled back, the dead rank's
// experts re-placed across the survivors, the strategy's collective
// chains re-emitted for the new topology — and training continues,
// bit-identical to a fresh run restarted from the same checkpoint.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"
	"os"

	"repro/fsmoe"
)

func main() {
	newStack := func(ranks int) []*fsmoe.World {
		ws := make([]*fsmoe.World, 2)
		for i := range ws {
			layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{
				M: 64, H: 128, Experts: 8, TopK: 2, CapacityFactor: 1.2, Seed: uint64(42 + i),
			})
			if err != nil {
				log.Fatal(err)
			}
			w, err := fsmoe.NewWorld(layer, fsmoe.WorldConfig{
				Ranks: ranks, PipelineDegree: 2, BatchTokens: 256,
			})
			if err != nil {
				log.Fatal(err)
			}
			ws[i] = w
		}
		return ws
	}

	dir, err := os.MkdirTemp("", "fsmoe-recovery-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	mgr := &fsmoe.CheckpointManager{Dir: dir, Keep: 2}

	x := fsmoe.RandTensor(7, 256, 64)
	dy := fsmoe.RandTensor(8, 256, 64)
	cfg := fsmoe.StepConfig{LR: 0.05, ChunkBytes: 64 << 10}

	// 1. Train with periodic checkpoints: every step snapshots the full
	// training state — parameters, counters, gate RNG — and commits it
	// behind the next step via an atomic temp-file + fsync + rename,
	// checksummed with CRC-32C. LoadLatest below waits for the last commit.
	stack := newStack(4)
	ckptCfg := cfg
	ckptCfg.Checkpoint = mgr
	for s := 0; s < 2; s++ {
		res, err := fsmoe.StepStack(stack, x, dy, ckptCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("step %d: ok, checkpoint %s\n", s, res.CheckpointPath)
	}

	// 2. Kill rank 1 permanently. The in-flight step survives on the
	// degraded path (tokens re-routed, dead experts frozen) — no abort.
	stack[0].SetFaultPlan(fsmoe.NewFaultPlan(fsmoe.FaultSpec{
		Seed: 5,
		Down: &fsmoe.FaultDown{Rank: 1, Kind: fsmoe.KindExperts},
	}))
	res, err := fsmoe.StepStack(stack, x, dy, cfg)
	if err != nil {
		log.Fatal(err)
	}
	deg := res.Degraded[0]
	fmt.Printf("rank %d down mid-%s: step completed degraded (%d tokens re-routed, %d dropped)\n",
		deg.Rank, deg.Phase, deg.ReroutedTokens, deg.DroppedTokens)

	// 3. Elastic recovery: roll back to the latest checkpoint and shrink
	// onto the surviving ranks. The dead rank's experts are re-assigned
	// and their restored weights broadcast to the new owners; the
	// injector's down trigger is stripped.
	snap, err := mgr.LoadLatest()
	if err != nil {
		log.Fatal(err)
	}
	reports, err := fsmoe.Recover(stack, snap, fsmoe.RecoveryPolicy{Mode: fsmoe.RecoverShrink})
	if err != nil {
		log.Fatal(err)
	}
	rep := reports[0]
	fmt.Printf("recovered: %d→%d ranks, rolled back to step %d, %d experts re-placed, MTTR %.1f ms\n",
		rep.OldRanks, rep.NewRanks, rep.RestoredStep, len(rep.MovedExperts), rep.RecoveryMS)
	fmt.Printf("health after recovery: %v\n", stack[0].Health())

	// 4. Keep training, and prove the headline contract: the recovered run
	// is bit-identical to a reference run restarted from the very same
	// checkpoint on the same surviving topology.
	ref := newStack(rep.NewRanks)
	if err := fsmoe.Restore(ref, snap); err != nil {
		log.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		got, err := fsmoe.StepStack(stack, x, dy, cfg)
		if err != nil {
			log.Fatal(err)
		}
		want, err := fsmoe.StepStack(ref, x, dy, cfg)
		if err != nil {
			log.Fatal(err)
		}
		for r := range want.RankParams {
			for k := range want.RankParams[r] {
				if got.RankParams[r][k] != want.RankParams[r][k] {
					log.Fatalf("step %d diverged from the reference restart", s)
				}
			}
		}
	}
	fmt.Println("3 post-recovery steps are bit-identical to a fresh restart from the same checkpoint")
	for _, w := range append(stack, ref...) {
		w.Close()
	}
}
