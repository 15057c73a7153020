// Command fsmoe-sim simulates one configured MoE layer under a chosen
// scheduling system and prints the resulting discrete-event timeline as an
// ASCII Gantt chart — the textual analogue of the paper's Fig. 3.
//
// Usage:
//
//	fsmoe-sim -testbed A -system fsmoe -B 4 -L 1024 -M 1600 -hscale 4 -f 1.2
//	fsmoe-sim -system all        # all six systems side by side
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	testbed := flag.String("testbed", "A", "testbed preset: A or B")
	system := flag.String("system", "all", "dsmoe|tutel|tutel-improved|pipemoe-lina|fsmoe-no-iio|fsmoe|all")
	b := flag.Int("B", 4, "samples per GPU")
	l := flag.Int("L", 1024, "tokens per sample")
	m := flag.Int("M", 1600, "embedding size")
	hscale := flag.Int("hscale", 4, "H = hscale*M")
	nheads := flag.Int("nheads", 16, "attention heads")
	k := flag.Int("k", 2, "top-k experts per token")
	f := flag.Float64("f", 1.2, "capacity factor (0 = f=∗, no dropping)")
	ffn := flag.String("ffn", "simple", "expert type: simple|mixtral")
	width := flag.Int("width", 110, "gantt width in columns")
	flag.Parse()

	// Validate every enumerated flag up front, with the full menu in the
	// error, before any simulation work starts.
	cluster, err := clusterFor(*testbed)
	if err != nil {
		fatal(err)
	}
	systems, err := systemsFor(*system)
	if err != nil {
		fatal(err)
	}
	ffnType, err := ffnFor(*ffn)
	if err != nil {
		fatal(err)
	}
	cfg := workload.Config{B: *b, L: *l, M: *m, NHScale: *hscale, NHeads: *nheads, K: *k, F: *f, FFN: ffnType}
	scenario, err := topology.CanonicalScenario(cluster, 1)
	if err != nil {
		fatal(err)
	}
	models := core.ModelsFromCluster(cluster)
	v := workload.VolumesFor(cfg, scenario)
	fmt.Printf("config %s on testbed %s (N_MP=N_ESP=%d, N_EP=%d)\n", cfg.String(), cluster.Name, scenario.NMP, scenario.NEP)
	fmt.Printf("volumes: a2a=%.1fMB esp=%.1fMB expert=%.2fGMAC grads=%.1fMB\n\n",
		v.NA2A/1e6, v.NAG/1e6, v.ExpMACs/1e9, v.GradBytes/1e6)

	for _, sys := range systems {
		res, err := models.SimulateSingleLayer(v, sys, core.BuildOptions{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("--- %s (fwd r=%d, bwd r=%d) ---\n", sys, res.DegFwd[0], res.DegBwd[0])
		fmt.Print(res.Trace.Gantt(*width))
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsmoe-sim:", err)
	os.Exit(1)
}

// clusterFor resolves the -testbed flag.
func clusterFor(name string) (*topology.Cluster, error) {
	switch name {
	case "A", "a":
		return topology.TestbedA(), nil
	case "B", "b":
		return topology.TestbedB(), nil
	default:
		return nil, fmt.Errorf("unknown testbed %q (valid: A, B)", name)
	}
}

// systemsFor resolves the -system flag to the schedulers to run. An
// unknown name fails here with the full menu rather than silently running
// the default scheduler behavior at dispatch time.
func systemsFor(name string) ([]core.System, error) {
	if name == "all" {
		return core.AllSystems(), nil
	}
	for _, sys := range core.AllSystems() {
		if string(sys) == name {
			return []core.System{sys}, nil
		}
	}
	valid := make([]string, 0, len(core.AllSystems())+1)
	for _, sys := range core.AllSystems() {
		valid = append(valid, string(sys))
	}
	valid = append(valid, "all")
	return nil, fmt.Errorf("unknown system %q (valid: %s)", name, strings.Join(valid, ", "))
}

// ffnFor resolves the -ffn flag.
func ffnFor(name string) (workload.FFNType, error) {
	switch name {
	case "simple":
		return workload.FFNSimple, nil
	case "mixtral":
		return workload.FFNMixtral, nil
	default:
		return "", fmt.Errorf("unknown ffn type %q (valid: simple, mixtral)", name)
	}
}
