// Command bench is the repository's benchmark: wall-clock training-loop
// workloads over fsmoe.StepStack, per-layer probes and a traced run. See
// README.md beside this file for every workload and metric.
//
//	bash bench/run.sh                                   every workload, timed and traced
//	bash bench/run.sh -workload ep_tokens -trace 0      one timed run (the driver's form)
//	bash bench/run.sh -compare old.json new.json        judge two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	seed := flag.Uint64("seed", 1, "derives every layer-init and input-tensor seed")
	name := flag.String("workload", "", "run one workload and end with the driver's one-line JSON (default: all, timed and traced)")
	// The driver passes -seconds on every command line. The run length is
	// not a knob: a timed run takes a fixed number of samples, so that sample
	// counts and percentiles are the same on every run and commit.
	flag.Float64("seconds", runSeconds, "accepted and ignored: a run always takes the same number of samples")
	trace := flag.Int("trace", 0, "with -workload: 0 = timed run, end-to-end metrics; 1 = traced run, per-layer metrics")
	out := flag.String("out", filepath.Join("bench", "out", "result.json"), "result file, appended to; traces and scratch files go beside it")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fatal(err)
	}
	p := defaultParams(*seed, filepath.Dir(*out))
	type job struct {
		wl    workload
		trace int
	}
	var jobs []job
	if *name == "" {
		for _, wl := range workloads {
			jobs = append(jobs, job{wl, 0}, job{wl, 1})
		}
	} else {
		wl, ok := workloadByName(*name)
		if !ok || (*trace != 0 && *trace != 1) {
			fatal(fmt.Errorf("unknown workload %q or trace %d", *name, *trace))
		}
		jobs = []job{{wl, *trace}}
	}

	failed := false
	var last *runResult
	for _, j := range jobs {
		res, err := runOne(j.wl, p, j.trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", j.wl.name, err)
		}
		if res == nil {
			failed = true
			continue
		}
		printResult(res)
		if err := appendResult(*out, res); err != nil {
			fatal(err)
		}
		failed = failed || err != nil || res.Failed > 0
		last = res
	}
	if *name != "" && last != nil {
		// The driver's line carries exactly the metrics BENCHMARK.json names.
		specs := endToEnd
		if last.Trace == 1 {
			specs = perLayer
		}
		listed := map[string]metric{}
		for _, s := range specs {
			listed[s.Name] = last.Metrics[s.Name]
		}
		line, err := json.Marshal(map[string]any{
			"correct": !failed, "attempted": last.Attempted, "failed": last.Failed, "metrics": listed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne executes one run of one workload; the result is returned even
// when the run ended early on an error.
func runOne(wl workload, p runParams, trace int) (*runResult, error) {
	r, err := newRunner(wl, p, trace)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	if trace == 1 {
		err = r.traced()
	} else {
		err = r.timed()
	}
	return r.res, err
}

// printResult lists every metric of a run by name and unit.
func printResult(res *runResult) {
	kind := "timed"
	if res.Trace == 1 {
		kind = "traced"
	}
	fmt.Printf("== %s (%s run, seed %d): %s; picked %s; GOMAXPROCS=%d %s ==\n",
		res.Workload, kind, res.Seed, res.Shape, res.Picked, res.GOMAXPROCS, res.GoVersion)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.6g %-9s", n, m.Value, m.Unit)
		if st, ok := res.Detail[n]; ok {
			fmt.Printf(" n=%d min=%.6g mad=%.3g", st.N, st.Min, st.MAD)
			if st.HiPct > 0 {
				fmt.Printf(" p%g=%.6g", st.HiPct, st.Hi)
			}
		}
		fmt.Println()
	}
	fmt.Printf("steps attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// resultDoc is the result file: every run appended to it, so ten runs of
// one command make one set a later commit can be compared against.
type resultDoc struct {
	Schema string       `json:"schema"`
	Runs   []*runResult `json:"runs"`
}

const resultSchema = "fsmoe-bench/1"

func readResults(path string) (*resultDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &resultDoc{}
	if err := json.Unmarshal(raw, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, resultSchema)
	}
	return doc, nil
}

func appendResult(path string, res *runResult) error {
	doc, err := readResults(path)
	if os.IsNotExist(err) {
		doc, err = &resultDoc{Schema: resultSchema}, nil
	}
	if err != nil {
		return err
	}
	doc.Runs = append(doc.Runs, res)
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
