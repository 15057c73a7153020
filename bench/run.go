package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/fsmoe"
)

// runParams sizes one run. The command uses defaultParams; the smoke test
// shrinks every count so the same code path finishes in a second.
type runParams struct {
	seed       uint64
	warmup     int // untimed steps on a fresh stack; the first refSteps are checked against the reference
	refSteps   int
	samples    int // plain timed steps
	setupReps  int // set-ups per run; setup_s is their median
	ckptSteps  int // checkpointing steps timed after the loop on workloads without their own
	allocSteps int // steps with the collector off that alloc_mb_per_step is the median of
	probeN     int // samples per probe in the traced run
	tracedN    int // StepStack steps per block of the traced run
	manualN    int // decomposed steps of the traced run
	outDir     string
}

// runSeconds is BENCHMARK.json's run_seconds: about how long the fixed number
// of timed steps takes on the reference box.
const runSeconds = 20

func defaultParams(seed uint64, outDir string) runParams {
	return runParams{
		seed:   seed,
		warmup: 5, refSteps: 2, samples: 110, setupReps: 3, ckptSteps: 24, allocSteps: 5,
		probeN: 10, tracedN: 20, manualN: 10, outDir: outDir,
	}
}

// runResult is one run of one workload as written to the result file.
type runResult struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      int               `json:"trace"`
	Shape      string            `json:"shape"`
	Picked     string            `json:"picked"` // strategy and degrees of world 0 as executed
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Detail     map[string]stats  `json:"detail,omitempty"`
}

func (r *runResult) set(name string, v float64) {
	spec, ok := specByName(name)
	if !ok {
		panic("bench: unregistered metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: spec.Unit}
}

// setStats records a sample set's median under name and keeps the full
// summary beside it.
func (r *runResult) setStats(name string, samples []float64) stats {
	st := summarize(samples)
	r.set(name, st.P50)
	r.Detail[name] = st
	return st
}

// runner carries one run's state.
type runner struct {
	wl  workload
	p   runParams
	res *runResult
	cfg fsmoe.StepConfig // the timed steps' configuration
	mgr *fsmoe.CheckpointManager
	tr  *tracer // nil in the timed run
}

func newRunner(wl workload, p runParams, trace int) (*runner, error) {
	r := &runner{wl: wl, p: p, cfg: stepConfig()}
	r.res = &runResult{
		Workload: wl.name, Seed: p.seed, Trace: trace, Shape: wl.shape(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Metrics: map[string]metric{}, Detail: map[string]stats{},
	}
	dir := filepath.Join(p.outDir, fmt.Sprintf("ckpt-%s-%d", wl.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r.mgr = &fsmoe.CheckpointManager{Dir: dir, Keep: 2}
	if wl.ckpt {
		r.cfg.Checkpoint, r.cfg.CheckpointEvery = r.mgr, 5
	}
	return r, nil
}

// cleanup removes the run's scratch checkpoint directory.
func (r *runner) cleanup() { _ = os.RemoveAll(r.mgr.Dir) }

// checked counts one attempted step and records err, if any, as a failure.
func (r *runner) checked(what string, err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		if len(r.res.Failures) < 8 {
			r.res.Failures = append(r.res.Failures, what+": "+err.Error())
		}
	}
}

// stepChecked steps the stack once, untimed, and verifies the replicas.
// Only a step error is returned (it ends the run); a replica mismatch is a
// recorded failure.
func (r *runner) stepChecked(s *stack, cfg fsmoe.StepConfig, what string) (*fsmoe.StepResult, error) {
	res, err := s.step(cfg)
	if err != nil {
		r.checked(what, err)
		return nil, err
	}
	r.checked(what, replicasAgree(res))
	return res, nil
}

// timedSteps takes sm's samples of s.step(cfg). Only the StepStack call is
// inside the timed window (span, when non-nil, brackets it and returns what
// closes the bracket); the replica check and each, which is handed the
// step's result and wall time, run after it.
func (r *runner) timedSteps(sm sampling, s *stack, cfg fsmoe.StepConfig, what string,
	span func() func(), each func(res *fsmoe.StepResult, ms float64)) ([]float64, error) {
	var last *fsmoe.StepResult
	sm.after = func(_ int, ms float64) error {
		r.checked(what, replicasAgree(last))
		if each != nil {
			each(last, ms)
		}
		return nil
	}
	out, err := sm.run(func() (err error) {
		if span != nil {
			defer span()()
		}
		last, err = s.step(cfg)
		return err
	})
	if err != nil {
		r.checked(what, err)
	}
	return out, err
}

// setup builds the workload's stack and brings it to steady state: warm-up
// steps, the first refSteps of them checked bit for bit against an
// identically seeded stack stepped sequentially with the whole gradient
// AllReduce exposed — the plain execution every overlapped schedule must
// reproduce.
func (r *runner) setup() (*stack, error) {
	s, err := r.wl.build(r.p.seed, variant{})
	if err != nil {
		return nil, err
	}
	ref, err := r.wl.build(r.p.seed, variant{})
	if err != nil {
		s.close()
		return nil, err
	}
	defer ref.close()
	refCfg := stepConfig()
	refCfg.Sequential, refCfg.Strategy = true, fsmoe.SyncNoOverlap
	for i := 0; i < r.p.warmup; i++ {
		got, err := r.stepChecked(s, r.cfg, "warm-up step")
		if err != nil {
			s.close()
			return nil, err
		}
		if i >= r.p.refSteps {
			continue
		}
		want, err := ref.step(refCfg)
		if err == nil {
			err = sameParams(want.RankParams[0], got.RankParams[0])
		}
		r.checked("reference step", err)
	}
	fwd, bwd := s.worlds[0].PipelineDegrees()
	r.res.Picked = fmt.Sprintf("%s g=%d r=%d/%d", s.worlds[0].Strategy(), s.worlds[0].GroupSize(), fwd, bwd)
	return s, nil
}

// setups runs setup setupReps times and returns the last stack, recording
// setup_s as the median.
func (r *runner) setups() (*stack, error) {
	var s *stack
	var secs []float64
	for i := 0; i < r.p.setupReps; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = r.setup(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.res.setStats("setup_s", secs)
	return s, nil
}

// allocPerStep measures the bytes one plain step allocates with the
// collector off. Under the collector the figure is bimodal from run to run
// (on ep_compute 63 or 76 MB): the tensor free-lists are sync.Pools, which
// every collection flushes, so whether a large buffer is reused or allocated
// anew depends on where in the step a collection happens to fall. With no
// collection the pools stay warm and the figure repeats to 0.01 % after two
// steps — the floor that an allocation cut lowers. The median of allocSteps
// steps skips those first two; no step writes a checkpoint.
func (r *runner) allocPerStep(s *stack) error {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := r.cfg
	cfg.Checkpoint = nil
	var mb []float64
	for i := 0; i < r.p.allocSteps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := r.stepChecked(s, cfg, "allocation step"); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		mb = append(mb, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	r.res.setStats("alloc_mb_per_step", mb)
	return nil
}

// timed is the untraced run: the closed training loop of one client, next
// step only after the previous returned, wall clock around fsmoe.StepStack.
func (r *runner) timed() error {
	s, err := r.setups()
	if err != nil {
		return err
	}
	defer s.close()

	var plain, ckpt []float64
	var wallMS float64
	n := r.p.samples
	if r.wl.ckpt {
		n += n / 4 // every fifth step writes a checkpoint and is not a plain sample
	}
	all, err := r.timedSteps(sampling{n: n}, s, r.cfg, "timed step", nil, func(res *fsmoe.StepResult, ms float64) {
		wallMS += ms
		if res.CheckpointPath != "" {
			ckpt = append(ckpt, ms)
		} else {
			plain = append(plain, ms)
		}
	})
	if err != nil {
		return err
	}

	// The gate is the fastest plain step; the median, the tail and the
	// throughput say what the loop paid on the host as it was.
	sorted := append([]float64(nil), plain...)
	sort.Float64s(sorted)
	st := r.res.setStats("step_ms_p50", plain)
	r.res.set("step_ms_min", st.Min)
	r.res.set("step_ms_p90", percentile(sorted, 90))
	r.res.set("tokens_per_s", float64(r.wl.N*len(all))/(wallMS/1e3))
	if err := r.allocPerStep(s); err != nil {
		return err
	}

	// The training stall of a checkpoint: mixed_ckpt pays it inside the
	// loop; the other workloads time it afterwards, one snapshot per step.
	if len(ckpt) < r.p.ckptSteps {
		cfg := r.cfg
		cfg.Checkpoint, cfg.CheckpointEvery = r.mgr, 1
		ckpt, err = r.timedSteps(sampling{n: r.p.ckptSteps}, s, cfg, "checkpoint step", nil, nil)
		if err != nil {
			return err
		}
	}
	r.res.set("ckpt_step_ms_min", r.res.setStats("ckpt_step_ms_p50", ckpt).Min)
	return nil
}
