package fsmoe

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestStepParamHashesPinned pins the bits of a training step end to end: the
// repository benchmark's four stacks (bench/workload.go, seed 1) stepped five
// times through StepStack, rank 0's parameter replica hashed. Any change to
// a GEMM, an activation, a reduction order or the schedule's arithmetic that
// moves one parameter bit moves a hash. A change meant to be bit-identical
// must leave all four alone; one that re-rounds on purpose updates them, says
// so, and reports the drift.
func TestStepParamHashesPinned(t *testing.T) {
	type layer struct {
		gate  GateKind
		strat Strategy
		group int
	}
	ep := layer{GateGShard, StrategyEP, 0}
	for _, wl := range []struct {
		name    string
		m, h, n int
		degree  int
		layers  []layer
		want    string
	}{
		{"ep_tokens", 512, 16, 384, 4, []layer{ep, ep, ep}, "6cbd917483d08c62"},
		{"ep_compute", 64, 384, 256, 2, []layer{ep, ep, ep}, "470d7f2dfea42d09"},
		{"ep_params", 256, 320, 64, 2, []layer{ep, ep}, "23b5c8ed9575bab2"},
		{"mixed_ckpt", 128, 128, 160, 2, []layer{
			ep,
			{GateXMoE, StrategyESP, 0},
			{GateSigmoid, StrategyHybrid, 2},
			{GateSoftMoE, StrategyDenseSlots, 0},
		}, "56af106ce8fd5686"},
	} {
		t.Run(wl.name, func(t *testing.T) {
			worlds := make([]*World, len(wl.layers))
			for i, k := range wl.layers {
				l, err := NewLayer(LayerConfig{
					M: wl.m, H: wl.h, Experts: 8, TopK: 2, CapacityFactor: 1.2, Gate: k.gate, Seed: 1000 + 10 + uint64(i),
				})
				if err != nil {
					t.Fatal(err)
				}
				w, err := NewWorld(l, WorldConfig{
					Ranks: 4, PipelineDegree: wl.degree, Strategy: k.strat, GroupSize: k.group, BatchTokens: wl.n,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				worlds[i] = w
			}
			x, dy := RandTensor(1001, wl.n, wl.m), RandTensor(1002, wl.n, wl.m)
			for i, d := 0, dy.Data(); i < len(d); i++ {
				d[i] *= 1e-4
			}
			var res *StepResult
			for s := 0; s < 5; s++ {
				var err error
				if res, err = StepStack(worlds, x, dy, StepConfig{LR: 0.01, Strategy: SyncFSMoE}); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, v := range res.RankParams[0] {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != wl.want {
				t.Fatalf("rank 0's parameters after 5 steps hash to %s, pinned %s: a step's bits moved", got, wl.want)
			}
		})
	}
}
