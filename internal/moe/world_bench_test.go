package moe

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// benchWorldLayer builds a communication-heavy layer: a wide embedding
// with a modest hidden size keeps the AlltoAll + (un)pack volume
// comparable to the expert GEMMs, the regime where pipelining pays.
func benchWorldLayer(b testing.TB, m, h, e int) *MOELayer {
	b.Helper()
	rng := xrand.New(7)
	gate, err := NewGShardGate(GateConfig{Experts: e, TopK: 2, Factor: 1.2}, m, rng)
	if err != nil {
		b.Fatal(err)
	}
	exps := make([]Expert, e)
	for i := range exps {
		if exps[i], err = NewGPTFFN(m, h, rng); err != nil {
			b.Fatal(err)
		}
	}
	layer, err := NewMOELayer(LayerConfig{M: m, Gate: gate, Order: TutelOrder{}, Experts: exps})
	if err != nil {
		b.Fatal(err)
	}
	return layer
}

// BenchmarkPipelinedMoE measures one forward+backward pass of the
// multi-rank World at R=4 ranks, sequential (r=4 chunks, single-goroutine
// executor — no overlap) versus pipelined (r=4 chunks on real streams).
// On a multi-core runner the pipelined variant's wall-clock is lower: the
// inter stream moves chunk c+1 while the compute streams process chunk c —
// the paper's Fig. 3 overlap, measured rather than simulated.
func BenchmarkPipelinedMoE(b *testing.B) {
	const m, h, e, n = 256, 64, 8, 2048
	x := tensor.RandN(xrand.New(61), 1, n, m)
	dy := tensor.RandN(xrand.New(62), 1, n, m)
	for _, mode := range []struct {
		name string
		seq  bool
	}{{"sequential", true}, {"pipelined", false}} {
		b.Run(fmt.Sprintf("%s/R=4/r=4", mode.name), func(b *testing.B) {
			layer := benchWorldLayer(b, m, h, e)
			w, err := NewWorld(layer, WorldConfig{Ranks: 4, ChunksFwd: 4})
			if err != nil {
				b.Fatal(err)
			}
			w.SetSequential(mode.seq)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.ZeroGrad()
				y, cache, err := w.Forward(x, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.Backward(cache, dy); err != nil {
					b.Fatal(err)
				}
				_ = y
			}
		})
	}
}

// BenchmarkWorldDegrees sweeps the pipeline degree at R=4 so the r
// sensitivity of the measured makespan is visible alongside Algorithm 1's
// predictions.
func BenchmarkWorldDegrees(b *testing.B) {
	const m, h, e, n = 256, 64, 8, 2048
	x := tensor.RandN(xrand.New(63), 1, n, m)
	dy := tensor.RandN(xrand.New(64), 1, n, m)
	for _, r := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			layer := benchWorldLayer(b, m, h, e)
			w, err := NewWorld(layer, WorldConfig{Ranks: 4, ChunksFwd: r})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.ZeroGrad()
				y, cache, err := w.Forward(x, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.Backward(cache, dy); err != nil {
					b.Fatal(err)
				}
				_ = y
			}
		})
	}
}

// BenchmarkWorldGrid measures one fwd+bwd pass per cell of the (group
// width, degree) grid at R=4 — g=1 is EP's plan, g=4 ESP's, g=2 the interior
// hybrid — plus DenseSlots over a SoftMoE gate: the sweep the CI smoke step
// executes with -benchtime=1x. Every cell runs its plans on the k-worker
// executor over the world's one kernel pool.
func BenchmarkWorldGrid(b *testing.B) {
	const m, e, h, tokens = 64, 8, 128, 512
	type cell struct {
		name string
		cfg  WorldConfig
	}
	var cells []cell
	for _, r := range []int{1, 2, 4} {
		row := []cell{{name: "dense-slots", cfg: WorldConfig{Strategy: StrategyDenseSlots}}}
		for _, g := range []int{1, 2, 4} {
			row = append(row, cell{name: fmt.Sprintf("g=%d", g), cfg: WorldConfig{Strategy: StrategyHybrid, GroupSize: g}})
		}
		for _, c := range row {
			c.cfg.Ranks, c.cfg.ChunksFwd = 4, r
			c.name = fmt.Sprintf("%s/r=%d", c.name, r)
			cells = append(cells, c)
		}
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			rng := xrand.New(91)
			var g Gate
			var err error
			if c.cfg.Strategy == StrategyDenseSlots {
				g, err = NewSoftMoEGate(GateConfig{Experts: e, TopK: 1, Factor: 1}, m, tokens/e, rng)
			} else {
				g, err = NewGShardGate(GateConfig{Experts: e, TopK: 2, Factor: 1.2}, m, rng)
			}
			if err != nil {
				b.Fatal(err)
			}
			exps := make([]Expert, e)
			for i := range exps {
				if exps[i], err = NewGPTFFN(m, h, rng); err != nil {
					b.Fatal(err)
				}
			}
			layer, err := NewMOELayer(LayerConfig{M: m, Gate: g, Order: TutelOrder{}, Experts: exps})
			if err != nil {
				b.Fatal(err)
			}
			w, err := NewWorld(layer, c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			x := tensor.RandN(xrand.New(92), 1, tokens, m)
			dy := tensor.RandN(xrand.New(93), 1, tokens, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.ZeroGrad()
				_, cache, err := w.Forward(x, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.Backward(cache, dy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepTelemetryGuard measures the telemetry branch of the step
// path in isolation — the sink scan plus the nil guard that StepWorlds
// runs once per step when no Sink is configured. The acceptance contract
// is 0 allocs/op: unconfigured telemetry must add nothing to the step hot
// path (TestStepNoSinkNoMetrics asserts the same via AllocsPerRun).
func BenchmarkStepTelemetryGuard(b *testing.B) {
	layer := benchWorldLayer(b, 64, 96, 8)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	worlds := []*World{w}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinks := stepSinks(worlds); sinks != nil {
			b.Fatal("phantom sink")
		}
		w.steps++
	}
}
