package repro

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6). Each benchmark executes the experiment's full computation —
// schedule construction, optimization and discrete-event execution — so
// `go test -bench=.` both regenerates the results and tracks the cost of
// the scheduler itself. The human-readable tables are printed by
// cmd/fsmoe-bench.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/topology"
	"repro/internal/trainsim"
	"repro/internal/workload"
)

// BenchmarkTable2Breakdown regenerates the per-operation breakdown of a
// GPT2-XL and a Mixtral-7B transformer layer on both testbeds.
func BenchmarkTable2Breakdown(b *testing.B) {
	clusters := []*topology.Cluster{topology.TestbedA(), topology.TestbedB()}
	for i := 0; i < b.N; i++ {
		for _, c := range clusters {
			s, err := topology.CanonicalScenario(c, 1)
			if err != nil {
				b.Fatal(err)
			}
			m := core.ModelsFromCluster(c)
			for _, spec := range []workload.ModelSpec{workload.GPT2XLMoE(c), workload.Mixtral7B(c)} {
				cfg := spec.Layer
				cfg.B, cfg.L = 4, 1024
				v := workload.VolumesFor(cfg, s)
				res, err := m.SimulateSingleLayer(v, core.SystemDSMoE, core.BuildOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if bd := res.Trace.Breakdown(); bd[core.KindA2A] <= 0 {
					b.Fatal("empty breakdown")
				}
			}
		}
	}
}

// BenchmarkFig4Cases classifies and schedules the four Fig. 4 regimes.
func BenchmarkFig4Cases(b *testing.B) {
	m := core.ModelsFromCluster(topology.TestbedA())
	vols := []core.Volumes{
		{NA2A: 2e7, NAG: 1e6, NRS: 1e6, ExpMACs: 1e9, ExpGEMMs: 2, GradBytes: 4e8},
		{NA2A: 2e6, NAG: 1e6, NRS: 1e6, ExpMACs: 8e11, ExpGEMMs: 2},
		{NA2A: 6e7, NAG: 1e6, NRS: 1e6, ExpMACs: 1e9, ExpGEMMs: 2},
		{NA2A: 1e6, NAG: 8e7, NRS: 8e7, ExpMACs: 1e9, ExpGEMMs: 2},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vols {
			if m.Classify(v, 0, core.Backward, 2) == core.CaseUnknown {
				b.Fatal("unclassified")
			}
			if _, err := m.SimulateSingleLayer(v, core.SystemFSMoE, core.BuildOptions{RMax: 4}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5PerfModelFit runs the microbenchmark-and-fit workflow on
// both testbeds (24 communication sizes × 5 collectives + 12 GEMM sizes).
func BenchmarkFig5PerfModelFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range []*topology.Cluster{topology.TestbedA(), topology.TestbedB()} {
			cm, err := perfmodel.ProfileCluster(c)
			if err != nil {
				b.Fatal(err)
			}
			if cm.A2A.R2 < 0.99 {
				b.Fatalf("bad fit: %v", cm.A2A.R2)
			}
		}
	}
}

// BenchmarkTable5ConfiguredLayers runs the Table 4 sweep (subsampled to
// keep one iteration under a second; cmd/fsmoe-bench runs the full 1458)
// under the four Table 5 schedules on both testbeds.
func BenchmarkTable5ConfiguredLayers(b *testing.B) {
	systems := []core.System{core.SystemTutel, core.SystemTutelImproved, core.SystemFSMoENoIIO, core.SystemFSMoE}
	for i := 0; i < b.N; i++ {
		for _, c := range []*topology.Cluster{topology.TestbedA(), topology.TestbedB()} {
			s, err := topology.CanonicalScenario(c, 1)
			if err != nil {
				b.Fatal(err)
			}
			m := core.ModelsFromCluster(c)
			grid := workload.Grid(c)
			var tutel, fsmoe float64
			for j := 0; j < len(grid); j += 81 {
				v := workload.VolumesFor(grid[j], s)
				for _, sys := range systems {
					res, err := m.SimulateSingleLayer(v, sys, core.BuildOptions{})
					if err != nil {
						b.Fatal(err)
					}
					switch sys {
					case core.SystemTutel:
						tutel += res.Total
					case core.SystemFSMoE:
						fsmoe += res.Total
					}
				}
			}
			if fsmoe >= tutel {
				b.Fatalf("testbed %s: FSMoE (%v) did not beat Tutel (%v)", c.Name, fsmoe, tutel)
			}
		}
	}
}

// BenchmarkFig6RealModels simulates full iterations of the three real
// models under all six systems on Testbed A.
func BenchmarkFig6RealModels(b *testing.B) {
	c := topology.TestbedA()
	s, err := topology.CanonicalScenario(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := core.ModelsFromCluster(c)
	specs := []workload.ModelSpec{workload.GPT2XLMoE(c), workload.Mixtral7B(c), workload.Mixtral22B(c)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			times, err := trainsim.Compare(m, spec, s, core.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !(times[core.SystemFSMoE] < times[core.SystemDSMoE]) {
				b.Fatal("ordering broken")
			}
		}
	}
}

// BenchmarkFig7VariedLP sweeps L ∈ {512, 1024, 2048} and P ∈ {16, 32, 48}.
func BenchmarkFig7VariedLP(b *testing.B) {
	base := topology.TestbedA()
	for i := 0; i < b.N; i++ {
		for _, l := range []int{512, 1024, 2048} {
			s, err := topology.CanonicalScenario(base, 1)
			if err != nil {
				b.Fatal(err)
			}
			m := core.ModelsFromCluster(base)
			if _, err := trainsim.Compare(m, workload.Mixtral7B(base).WithSeqLen(l), s, core.BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		for _, p := range []int{16, 32, 48} {
			c := base.WithGPUs(p)
			s, err := topology.CanonicalScenario(c, 1)
			if err != nil {
				b.Fatal(err)
			}
			m := core.ModelsFromCluster(c)
			if _, err := trainsim.Compare(m, workload.Mixtral7B(c), s, core.BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig8PipelineParallel enables GPipe PP (NPP=2, 8 microbatches).
func BenchmarkFig8PipelineParallel(b *testing.B) {
	c := topology.TestbedA()
	s, err := topology.CanonicalScenario(c, 2)
	if err != nil {
		b.Fatal(err)
	}
	m := core.ModelsFromCluster(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		times, err := trainsim.ComparePP(m, workload.Mixtral7B(c), s, 2, 8, core.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !(times[core.SystemFSMoE] < times[core.SystemDSMoE]) {
			b.Fatal("ordering broken under PP")
		}
	}
}

// BenchmarkTable6Gatings sweeps the four gating functions on GPT2-XL,
// Testbed B, DS-MoE vs FSMoE.
func BenchmarkTable6Gatings(b *testing.B) {
	c := topology.TestbedB()
	s, err := topology.CanonicalScenario(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := core.ModelsFromCluster(c)
	gates := []workload.GateKind{workload.GateGShard, workload.GateXMoE, workload.GateSigmoid, workload.GateEC}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gates {
			spec := workload.GPT2XLMoE(c)
			spec.Layer.Gate = g
			for _, sys := range []core.System{core.SystemDSMoE, core.SystemFSMoE} {
				if _, err := trainsim.Iteration(m, spec, s, sys, core.BuildOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkAlgorithm1 measures the pipeline-degree solver itself: one
// closed-form evaluation per integer degree up to the cap (the paper
// reports ~193 ms per continuous solve).
func BenchmarkAlgorithm1(b *testing.B) {
	c := topology.TestbedA()
	s, err := topology.CanonicalScenario(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := core.ModelsFromCluster(c)
	v := workload.VolumesFor(workload.Grid(c)[700], s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FindOptimalPipelineDegree(v, 1.5, core.Backward, 16)
	}
}

// BenchmarkGradientPartitioning measures §5's two-step partitioning over a
// 32-layer model.
func BenchmarkGradientPartitioning(b *testing.B) {
	c := topology.TestbedA()
	s, err := topology.CanonicalScenario(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := core.ModelsFromCluster(c)
	layers := workload.Mixtral7B(c).LayerSpecs(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := m.PartitionGradients(layers, 16)
		if plan.TotalBytes <= 0 {
			b.Fatal("empty plan")
		}
	}
}
