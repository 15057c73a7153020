package moe

import (
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestWorldScheduleOverlaps asserts the structural fix: on the inter
// stream, every dispatch chunk is issued before any combine chunk
// (forward) and every combine-gradient chunk before any dispatch-gradient
// chunk (backward), so chunk c+1 can be on the wire while chunk c
// computes — the Fig. 3c/d ordering. Verified on the DES interpretation
// of the executed plan, which shares its structure with the real run.
func TestWorldScheduleOverlaps(t *testing.T) {
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, PipelineDegree: 4, Strategy: StrategyEP})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(xrand.New(71), 1, 96, 32)
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	checkInterOrder := func(phase, first, second string) {
		t.Helper()
		tr := w.LastPlan().Simulate()
		lastFirst, firstSecond := -1.0, -1.0
		for _, iv := range tr.Intervals {
			if iv.Task.Stream != "inter" {
				continue
			}
			switch {
			case strings.HasPrefix(iv.Task.Label, first):
				if iv.Finish > lastFirst {
					lastFirst = iv.Finish
				}
			case strings.HasPrefix(iv.Task.Label, second):
				if firstSecond < 0 || iv.Start < firstSecond {
					firstSecond = iv.Start
				}
			}
		}
		if lastFirst < 0 || firstSecond < 0 {
			t.Fatalf("%s: missing %s/%s tasks on inter stream", phase, first, second)
		}
		if firstSecond < lastFirst {
			t.Fatalf("%s: first %s starts at %v before last %s finishes at %v — wire phases interleaved",
				phase, second, firstSecond, first, lastFirst)
		}
	}
	checkInterOrder("forward", "D", "C")
	if _, err := w.Backward(cache, tensor.RandN(xrand.New(72), 1, 96, 32)); err != nil {
		t.Fatal(err)
	}
	checkInterOrder("backward", "C", "D")

	// The pipelined makespan must beat the fully serialized sum of task
	// durations under the DES interpretation (structural overlap exists).
	tr := w.LastPlan().Simulate()
	sum := 0.0
	for _, iv := range tr.Intervals {
		sum += iv.Finish - iv.Start
	}
	if tr.Makespan >= sum {
		t.Fatalf("simulated makespan %v shows no overlap over serialized %v", tr.Makespan, sum)
	}
}
