// Command fsmoe-bench regenerates every table and figure of the paper's
// evaluation section on the simulated testbeds, plus the chaos table:
// seeded fault injection, degraded passes and elastic recovery on the
// executable runtime. Machine measurements of the executable runtime
// (overlap, simulator gap, gradient sync, Algorithm 1's picks, telemetry)
// are the repository benchmark's, in bench/.
//
// Usage:
//
//	fsmoe-bench -experiment all
//	fsmoe-bench -experiment table5 -sample 9
//	fsmoe-bench -experiment chaos -sample 1 -trace chaos_trace.json
//
// Experiments: table2, table5, table6, fig4, fig5, fig6, fig7, fig8,
// degrees, chaos, all. -sample N evaluates every Nth configuration of the
// 1458 Table 4 grid (1 = full sweep; chaos reuses it as passes per cell).
// "all" runs the simulated paper experiments; chaos executes real
// multi-rank passes and is invoked explicitly.
//
// Observability: -trace out.json writes the measured stream plans of the
// chaos experiment as Chrome trace-event JSON (Perfetto-loadable).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/fsmoe"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trainsim"
	"repro/internal/workload"
)

// The flags live at package level so tests see what -h prints; the
// -experiment menu is built from the dispatch table, so it cannot drift.
var (
	experiment = flag.String("experiment", "all", strings.Join(validExperimentNames(), "|"))
	sample     = flag.Int("sample", 9, "evaluate every Nth Table 4 configuration (1 = all 1458); for chaos: passes per cell")
	jsonOut    = flag.Bool("json", false, "also write each experiment's tables to BENCH_<experiment>.json (perf-trajectory tracking)")
	traceOut   = flag.String("trace", "", "write measured stream plans as Chrome trace-event JSON to this file (chaos)")
)

func main() {
	flag.Parse()

	// Every measured experiment runs with static plan verification on: a
	// malformed schedule fails the experiment with a named error instead
	// of deadlocking or mis-aggregating (see runtime.Plan.Verify).
	fsmoe.SetVerifyPlans(true)

	// Validate up front so a typo fails with the full menu instead of a
	// bare "unknown experiment" at dispatch time.
	names, err := lookupExperiments(*experiment)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		enableTraceCapture()
	}
	runs := experimentTable()
	for i, name := range names {
		if *jsonOut {
			beginJSONCapture(name)
		}
		if err := runs[name](*sample); err != nil {
			fatal(err)
		}
		if *jsonOut {
			if err := writeJSONCapture(); err != nil {
				fatal(err)
			}
		}
		if i < len(names)-1 {
			fmt.Println()
		}
	}
	if *traceOut != "" {
		if err := writeTraceCapture(*traceOut); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsmoe-bench:", err)
	os.Exit(1)
}

func testbeds() []*topology.Cluster {
	return []*topology.Cluster{topology.TestbedA(), topology.TestbedB()}
}

// table2 reproduces the per-operation breakdown of a transformer layer for
// GPT2-XL and Mixtral-7B on both testbeds (B=4, L=1024, one forward row
// and one backward row per model, exactly the paper's format).
func table2() error {
	fmt.Println("== Table 2: per-operation time breakdown (ms, % of phase) ==")
	for _, c := range testbeds() {
		s, err := topology.CanonicalScenario(c, 1)
		if err != nil {
			return err
		}
		m := core.ModelsFromCluster(c)
		tb := report.NewTable(
			fmt.Sprintf("Testbed %s (B=4, L=1024)", c.Name),
			"row", sim.KindAlltoAll, sim.KindAllReduce, sim.KindAllGather, sim.KindReduceScatter, sim.KindExperts, sim.KindOthers)
		for _, model := range []workload.ModelSpec{workload.GPT2XLMoE(c), workload.Mixtral7B(c)} {
			cfg := model.Layer
			cfg.B, cfg.L = 4, 1024
			v := workload.VolumesFor(cfg, s)
			for _, phase := range []core.Phase{core.Forward, core.Backward} {
				a2a := 2 * m.TA2A(v, 1)
				ar := 0.0
				if phase == core.Backward {
					ar = m.TAR(v.GradBytes)
				}
				ag := m.TAG(v, 1)
				rs := m.TRS(v, 1)
				exp := m.TExp(v, 1, phase)
				others := v.DenseFwd
				if phase == core.Backward {
					others = v.DenseBwd
				}
				total := a2a + ar + ag + rs + exp + others
				cell := func(t float64) string {
					return fmt.Sprintf("%.1f(%.1f%%)", t, 100*t/total)
				}
				tb.AddRow(fmt.Sprintf("%s-%s", model.Name, phase),
					cell(a2a), cell(ar), cell(ag), cell(rs), cell(exp), cell(others))
			}
		}
		emit(tb)
	}
	return nil
}

// fig4 demonstrates the four scheduling cases with Gantt charts.
func fig4() error {
	fmt.Println("== Fig 4: the four pipelining cases (Testbed A, backward, r=2) ==")
	m := core.ModelsFromCluster(topology.TestbedA())
	cases := []struct {
		name string
		v    core.Volumes
		tgar float64
	}{
		{"case1 (inter-node bound: AlltoAll + Gradient-AllReduce)",
			core.Volumes{NA2A: 2e7, NAG: 1e6, NRS: 1e6, ExpMACs: 1e9, ExpGEMMs: 2, GradBytes: 4e8}, 200},
		{"case2 (compute bound: experts dominate)",
			core.Volumes{NA2A: 2e6, NAG: 1e6, NRS: 1e6, ExpMACs: 8e11, ExpGEMMs: 2}, 0},
		{"case3 (AlltoAll bound)",
			core.Volumes{NA2A: 6e7, NAG: 1e6, NRS: 1e6, ExpMACs: 1e9, ExpGEMMs: 2}, 0},
		{"case4 (intra-node bound: AllGather/ReduceScatter)",
			core.Volumes{NA2A: 1e6, NAG: 8e7, NRS: 8e7, ExpMACs: 1e9, ExpGEMMs: 2}, 0},
	}
	for _, cse := range cases {
		got := m.Classify(cse.v, cse.tgar, core.Backward, 2)
		note("%s → classified %v", cse.name, got)
		res, err := m.SimulateSingleLayer(cse.v, core.SystemFSMoE, core.BuildOptions{RMax: 2})
		if err != nil {
			return err
		}
		fmt.Print(res.Trace.Gantt(100))
		fmt.Println()
	}
	return nil
}

// fig5 reproduces the performance-model fitting workflow.
func fig5() error {
	fmt.Println("== Fig 5: performance models (measure → least-squares fit → R²) ==")
	for _, c := range testbeds() {
		cm, err := perfmodel.ProfileCluster(c)
		if err != nil {
			return err
		}
		tb := report.NewTable(fmt.Sprintf("Testbed %s (%d nodes × %d GPUs)", c.Name, c.Nodes, c.GPUsPerNode),
			"model", "alpha_ms", "beta_ms_per_unit", "R2", "samples")
		row := func(name string, f perfmodel.Fitted) {
			tb.AddRow(name, fmt.Sprintf("%.3e", f.Alpha), fmt.Sprintf("%.3e", f.Beta), fmt.Sprintf("%.6f", f.R2), f.N)
		}
		row("AlltoAll(2DH)", cm.A2A)
		row("AlltoAll(flat)", cm.A2AFlat)
		row(sim.KindAllGather, cm.AG)
		row(sim.KindReduceScatter, cm.RS)
		row(sim.KindAllReduce, cm.AR)
		row("GEMM", cm.GEMM)
		emit(tb)
	}
	return nil
}

// table5 sweeps the Table 4 grid and reports average speedups over Tutel.
func table5(sample int) error {
	if sample < 1 {
		sample = 1
	}
	fmt.Printf("== Table 5: averaged speedups over Tutel on configured layers (every %dth of 1458) ==\n", sample)
	systems := []core.System{core.SystemTutel, core.SystemTutelImproved, core.SystemFSMoENoIIO, core.SystemFSMoE}
	tb := report.NewTable("", "schedule", "Testbed A", "Testbed B")
	results := map[core.System][2]float64{}
	for ci, c := range testbeds() {
		s, err := topology.CanonicalScenario(c, 1)
		if err != nil {
			return err
		}
		m := core.ModelsFromCluster(c)
		grid := workload.Grid(c)
		sums := map[core.System]float64{}
		for i := 0; i < len(grid); i += sample {
			v := workload.VolumesFor(grid[i], s)
			for _, sys := range systems {
				res, err := m.SimulateSingleLayer(v, sys, core.BuildOptions{})
				if err != nil {
					return err
				}
				sums[sys] += res.Total
			}
		}
		for _, sys := range systems {
			r := results[sys]
			r[ci] = sums[core.SystemTutel] / sums[sys]
			results[sys] = r
		}
	}
	for _, sys := range systems {
		tb.AddRow(string(sys), results[sys][0], results[sys][1])
	}
	emit(tb)
	return nil
}

// fig6 compares the systems end to end on the real models.
func fig6() error {
	fmt.Println("== Fig 6: speedups over DS-MoE on real-world MoE models ==")
	for _, c := range testbeds() {
		s, err := topology.CanonicalScenario(c, 1)
		if err != nil {
			return err
		}
		m := core.ModelsFromCluster(c)
		models := []workload.ModelSpec{workload.GPT2XLMoE(c), workload.Mixtral7B(c)}
		if c.Name == "A" {
			models = append(models, workload.Mixtral22B(c))
		}
		tb := report.NewTable(fmt.Sprintf("Testbed %s (speedup over DS-MoE)", c.Name),
			"model", "tutel", "tutel-improved", "pipemoe-lina", "fsmoe-no-iio", "fsmoe", "iter_dsmoe_ms")
		for _, spec := range models {
			times, err := trainsim.Compare(m, spec, s, core.BuildOptions{})
			if err != nil {
				return err
			}
			sp := trainsim.Speedups(times, core.SystemDSMoE)
			tb.AddRow(spec.Name, sp[core.SystemTutel], sp[core.SystemTutelImproved],
				sp[core.SystemLina], sp[core.SystemFSMoENoIIO], sp[core.SystemFSMoE],
				times[core.SystemDSMoE])
		}
		emit(tb)
	}
	return nil
}

// fig7 sweeps sequence length and cluster size on Testbed A.
func fig7() error {
	fmt.Println("== Fig 7: speedups over DS-MoE with varied L and P (Testbed A, Mixtral-7B) ==")
	base := topology.TestbedA()
	tb := report.NewTable("", "setting", "tutel", "fsmoe")
	for _, l := range []int{512, 1024, 2048} {
		c := base
		s, err := topology.CanonicalScenario(c, 1)
		if err != nil {
			return err
		}
		m := core.ModelsFromCluster(c)
		spec := workload.Mixtral7B(c).WithSeqLen(l)
		times, err := trainsim.Compare(m, spec, s, core.BuildOptions{})
		if err != nil {
			return err
		}
		sp := trainsim.Speedups(times, core.SystemDSMoE)
		tb.AddRow(fmt.Sprintf("P=48 L=%d", l), sp[core.SystemTutel], sp[core.SystemFSMoE])
	}
	for _, p := range []int{16, 32, 48} {
		c := base.WithGPUs(p)
		s, err := topology.CanonicalScenario(c, 1)
		if err != nil {
			return err
		}
		m := core.ModelsFromCluster(c)
		spec := workload.Mixtral7B(c)
		times, err := trainsim.Compare(m, spec, s, core.BuildOptions{})
		if err != nil {
			return err
		}
		sp := trainsim.Speedups(times, core.SystemDSMoE)
		tb.AddRow(fmt.Sprintf("P=%d L=1024", p), sp[core.SystemTutel], sp[core.SystemFSMoE])
	}
	emit(tb)
	return nil
}

// fig8 enables GPipe pipeline parallelism (NPP=2).
func fig8() error {
	fmt.Println("== Fig 8: speedups over DS-MoE with PP enabled (Testbed A, NPP=2, GPipe) ==")
	c := topology.TestbedA()
	s, err := topology.CanonicalScenario(c, 2)
	if err != nil {
		return err
	}
	m := core.ModelsFromCluster(c)
	tb := report.NewTable("", "model", "tutel", "tutel-improved", "pipemoe-lina", "fsmoe-no-iio", "fsmoe")
	for _, spec := range []workload.ModelSpec{workload.GPT2XLMoE(c), workload.Mixtral7B(c), workload.Mixtral22B(c)} {
		times, err := trainsim.ComparePP(m, spec, s, 2, 4, core.BuildOptions{})
		if err != nil {
			return err
		}
		sp := trainsim.Speedups(times, core.SystemDSMoE)
		tb.AddRow(spec.Name, sp[core.SystemTutel], sp[core.SystemTutelImproved],
			sp[core.SystemLina], sp[core.SystemFSMoENoIIO], sp[core.SystemFSMoE])
	}
	emit(tb)
	return nil
}

// table6 sweeps the gating functions on GPT2-XL, Testbed B.
func table6() error {
	fmt.Println("== Table 6: gating functions on GPT2-XL, Testbed B (iteration ms) ==")
	c := topology.TestbedB()
	s, err := topology.CanonicalScenario(c, 1)
	if err != nil {
		return err
	}
	m := core.ModelsFromCluster(c)
	tb := report.NewTable("", "gating", "DeepSpeed-MoE", "FSMoE", "speedup")
	for _, g := range []workload.GateKind{workload.GateGShard, workload.GateXMoE, workload.GateSigmoid, workload.GateEC} {
		spec := workload.GPT2XLMoE(c)
		spec.Layer.Gate = g
		times, err := trainsim.Compare(m, spec, s, core.BuildOptions{})
		if err != nil {
			return err
		}
		ds, fs := times[core.SystemDSMoE], times[core.SystemFSMoE]
		tb.AddRow(string(g), ds, fs, fmt.Sprintf("%.2fx", ds/fs))
	}
	emit(tb)
	return nil
}

// degrees reports the §2.3 motivation stat: how many Table 4 configurations
// have different optimal forward and backward pipeline degrees.
func degrees(sample int) error {
	if sample < 1 {
		sample = 1
	}
	fmt.Printf("== §2.3 motivation: phase-dependent optimal degrees (every %dth of 1458, Testbed B) ==\n", sample)
	c := topology.TestbedB()
	s, err := topology.CanonicalScenario(c, 1)
	if err != nil {
		return err
	}
	m := core.ModelsFromCluster(c)
	grid := workload.Grid(c)
	differ, total := 0, 0
	hist := map[int]int{}
	for i := 0; i < len(grid); i += sample {
		v := workload.VolumesFor(grid[i], s)
		f := m.FindOptimalPipelineDegree(v, 0, core.Forward, 16)
		b := m.FindOptimalPipelineDegree(v, 0, core.Backward, 16)
		if f.R != b.R {
			differ++
		}
		hist[b.R-f.R]++
		total++
	}
	note("%d of %d configurations (%.0f%%) have different optimal fwd/bwd degrees (paper: 912/1458 = 63%%)",
		differ, total, 100*float64(differ)/float64(total))
	var keys []int
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		note("  bwd-fwd degree delta %+d: %d configs", k, hist[k])
	}
	return nil
}
