package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smokeParams(dir string) runParams {
	return runParams{
		seed: 7, warmup: 1, refSteps: 1, samples: 2, setupReps: 1, ckptSteps: 1, allocSteps: 1,
		probeN: 1, tracedN: 2, manualN: 1, outDir: dir,
	}
}

// small is wl with every dimension cut: the same layers, strategies, sinks
// and checkpoints through the same code, at a size a smoke test can afford.
func small(wl workload) workload {
	wl.M, wl.H, wl.N = max(16, wl.M/4), max(8, wl.H/4), 32
	return wl
}

// Every workload through the timed run's code path, two steps each: the
// stacks build, the reference and replica checks pass, and every
// end-to-end metric comes out non-zero.
func TestSmokeTimed(t *testing.T) {
	for _, wl := range workloads {
		res, err := runOne(small(wl), smokeParams(t.TempDir()), 0)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d steps failed: %v", wl.name, res.Failed, res.Attempted, res.Failures)
		}
		for _, s := range append(append([]metricSpec(nil), endToEnd...), timedInfo...) {
			if m, ok := res.Metrics[s.Name]; !ok || m.Value <= 0 || m.Unit != s.Unit {
				t.Errorf("%s: metric %s = %+v", wl.name, s.Name, m)
			}
		}
	}
}

// The command's sample count carries the p90 it reports: ten samples lie
// beyond it.
func TestDefaultSamplesCarryP90(t *testing.T) {
	if p := defaultParams(1, ""); tailPercentile(p.samples) < 90 {
		t.Errorf("%d samples carry only p%v", p.samples, tailPercentile(p.samples))
	}
}

// One workload through the traced run: every per-layer metric is reported
// and the spans land in a loadable trace file with parents and self times.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	wl, _ := workloadByName("mixed_ckpt")
	res, err := runOne(small(wl), smokeParams(dir), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("failures: %v", res.Failures)
	}
	for _, s := range perLayer {
		if _, ok := res.Metrics[s.Name]; !ok {
			t.Errorf("per-layer metric %s not reported", s.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d registered", len(res.Metrics), len(perLayer))
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace_mixed_ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Dur  float64
			Args struct {
				ID, Parent, Step int
				SelfMS           float64 `json:"self_ms"`
			}
		}
		OtherData map[string]float64
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		names[e.Name]++
		if e.Name == "fsmoe.sync" {
			if p := doc.TraceEvents[e.Args.Parent]; p.Name != "manual_step" || p.Args.Step != e.Args.Step {
				t.Errorf("fsmoe.sync parent is %q step %d, span step %d", p.Name, p.Args.Step, e.Args.Step)
			}
		}
		if e.Name == "manual_step" && (e.Args.SelfMS < 0 || e.Args.SelfMS*1e3 >= e.Dur) {
			t.Errorf("manual_step self %v ms of %v us", e.Args.SelfMS, e.Dur)
		}
	}
	for _, want := range []string{"setup", "step", "manual_step", "fsmoe.forward.0", "fsmoe.backward.3", "fsmoe.sync", "probe.moe.recover_ms"} {
		if names[want] == 0 {
			t.Errorf("no %q span in the trace (have %v)", want, names)
		}
	}
	if doc.OtherData["steps"] != 2 || doc.OtherData["comm_elems"] <= 0 {
		t.Errorf("counts: %v", doc.OtherData)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this package
// reports, with the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %v in BENCHMARK.json, %v here", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: %q vs %q", i, doc.Workloads[i].Name, wl.name)
		}
		if why := doc.Workloads[i].Why; !strings.HasPrefix(why, wl.shape()) || len(why) > 200 {
			t.Errorf("workload %s: why %q must start with the shape %q and fit 200 characters", wl.name, why, wl.shape())
		}
	}
	check := func(kind string, got []entry, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better || (bounded && g.Bound != s.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, s)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms float64) string {
		doc := &resultDoc{Schema: resultSchema}
		for i := 0; i < 10; i++ {
			doc.Runs = append(doc.Runs, &runResult{Workload: "ep_tokens", Seed: uint64(i), Metrics: map[string]metric{
				"step_ms_min": {Value: ms * (1 + 0.001*float64(i)), Unit: "ms"},
			}})
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 100), write("same.json", 101), write("slow.json", 130)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, base, same); err != nil || regressed {
		t.Errorf("same: regressed %v err %v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareFiles(&out, base, slow)
	if err != nil || !regressed || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("slow: regressed %v err %v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "1.300 of 100.45") {
		t.Errorf("ratio must be given with its base:\n%s", out.String())
	}
}
