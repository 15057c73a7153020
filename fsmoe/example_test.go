package fsmoe_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/fsmoe"
)

// exampleWorld builds a small EP world over a fresh layer: 4 experts of
// top-2 routing, M = 8, over the given number of in-process ranks.
func exampleWorld(ranks, gpusPerNode int, algo fsmoe.A2AKind) *fsmoe.World {
	layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{M: 8, H: 16, Experts: 4, TopK: 2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	w, err := fsmoe.NewWorld(layer, fsmoe.WorldConfig{
		Ranks: ranks, GPUsPerNode: gpusPerNode, Algo: algo,
		Strategy: fsmoe.StrategyEP, PipelineDegree: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	return w
}

// The three AlltoAll algorithms of §3.1's Dispatch sub-module move the same
// rows, so the outputs are bit-identical; they differ in how many messages
// stay inside a node and how many cross nodes — the intra/inter split that
// §4 schedules on two streams.
func Example_alltoAllAlgorithms() {
	x := fsmoe.RandTensor(1, 16, 8)
	var ref *fsmoe.Tensor
	for _, algo := range []fsmoe.A2AKind{fsmoe.A2ADirect, fsmoe.A2A1DH, fsmoe.A2A2DH} {
		w := exampleWorld(4, 2, algo)
		y, _, err := w.Forward(x, false)
		if err != nil {
			log.Fatal(err)
		}
		if ref == nil {
			ref = y.Clone()
		}
		st := w.Stats()
		fmt.Printf("%s: bit-identical %v, intra-node messages %d, inter-node messages %d\n",
			algo, y.SameBits(ref), st.IntraMessages, st.InterMessages)
		w.Close()
	}
	// Output:
	// nccl-direct: bit-identical true, intra-node messages 16, inter-node messages 32
	// 1dh-hetu: bit-identical true, intra-node messages 64, inter-node messages 8
	// 2dh-tutel: bit-identical true, intra-node messages 32, inter-node messages 16
}

// A World used after Close fails with ErrWorldClosed.
func Example_worldClosed() {
	w := exampleWorld(2, 2, fsmoe.A2ADirect)
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	_, _, err := w.Forward(fsmoe.RandTensor(1, 16, 8), false)
	fmt.Println(errors.Is(err, fsmoe.ErrWorldClosed))
	// Output: true
}

// A forward-only call is Forward, then Release: the next Forward reuses the
// layer's workspace and the gate's routing scratch, and the released cache
// can drive no Backward.
func ExampleLayer_Release() {
	layer, err := fsmoe.NewLayer(fsmoe.LayerConfig{M: 8, H: 16, Experts: 4, TopK: 2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	x := fsmoe.RandTensor(1, 16, 8)
	y, cache, err := layer.Forward(x, false)
	if err != nil {
		log.Fatal(err)
	}
	layer.Release(cache)
	y2, cache2, err := layer.Forward(x, false)
	if err != nil {
		log.Fatal(err)
	}
	layer.Release(cache2)
	_, err = layer.Backward(cache, fsmoe.RandTensor(2, 16, 8))
	fmt.Println("same output:", y.SameBits(y2))
	fmt.Println("released:", errors.Is(err, fsmoe.ErrCacheReleased))
	// Output:
	// same output: true
	// released: true
}

// An injected fault that fires on every attempt of every AlltoAll exhausts
// the task's retries, and the pass fails with it: a transient fault, which
// would have been retried bit-safely, not a permanent rank loss. A rank lost
// on a dense (SoftMoE) pass is one: such a plan spreads every token over
// every expert and has no per-token fallback, so the pass fails with the
// permanent fault and the world reports the rank down.
func ExampleIsTransient() {
	w := exampleWorld(2, 2, fsmoe.A2ADirect)
	defer w.Close()
	w.SetFaultPlan(fsmoe.NewFaultPlan(fsmoe.FaultSpec{
		Seed: 1, KindProb: map[string]float64{fsmoe.KindAlltoAll: 1},
	}))
	_, _, err := w.Forward(fsmoe.RandTensor(1, 16, 8), false)
	fmt.Println("transient:", fsmoe.IsTransient(err))
	fmt.Println("permanent:", fsmoe.IsPermanent(err))

	soft, err := fsmoe.NewLayer(fsmoe.LayerConfig{M: 8, H: 16, Experts: 4, TopK: 1, Gate: fsmoe.GateSoftMoE, SlotsPerExpert: 2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	dw, err := fsmoe.NewWorld(soft, fsmoe.WorldConfig{Ranks: 2, Strategy: fsmoe.StrategyEP, PipelineDegree: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer dw.Close()
	dw.SetFaultPlan(fsmoe.NewFaultPlan(fsmoe.FaultSpec{Down: &fsmoe.FaultDown{Rank: 1, Kind: fsmoe.KindExperts}}))
	_, _, err = dw.Forward(fsmoe.RandTensor(1, 16, 8), false)
	fmt.Println("dense rank loss permanent:", fsmoe.IsPermanent(err), "health:", dw.Health())
	// Output:
	// transient: true
	// permanent: false
	// dense rank loss permanent: true health: [true false]
}

// A deadline bounds each pass: a straggler far slower than it is canceled,
// and the pass fails with context.DeadlineExceeded.
func ExampleWorld_SetDeadline() {
	w := exampleWorld(2, 2, fsmoe.A2ADirect)
	defer w.Close()
	w.SetFaultPlan(fsmoe.NewFaultPlan(fsmoe.FaultSpec{
		Seed: 1, StragglerProb: 1, StragglerDelay: time.Minute,
	}))
	w.SetDeadline(10 * time.Millisecond)
	_, _, err := w.Forward(fsmoe.RandTensor(1, 16, 8), false)
	fmt.Println(errors.Is(err, context.DeadlineExceeded))
	// Output: true
}

// A damaged snapshot file fails loudly with ErrCheckpointChecksum instead
// of restoring garbage.
func ExampleCheckpointManager() {
	w := exampleWorld(2, 2, fsmoe.A2ADirect)
	defer w.Close()
	dir, err := os.MkdirTemp("", "fsmoe-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	mgr := &fsmoe.CheckpointManager{Dir: dir}
	path, err := mgr.Start(fsmoe.Checkpoint([]*fsmoe.World{w}))
	if err == nil {
		err = mgr.Wait()
	}
	if err != nil {
		log.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	raw[len(raw)-3] ^= 1 // one flipped bit in the payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	_, err = mgr.LoadLatest()
	fmt.Println(filepath.Base(path), errors.Is(err, fsmoe.ErrCheckpointChecksum))
	// Output: step-000000000000.fsmc true
}
