package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"repro/fsmoe"
	"repro/internal/sim"
)

// stepObs is what one observed StepStack call yields for the per-layer
// metrics; every field is read from values the program already returns.
type stepObs struct {
	wallMS, fwdMS, bwdMS, tailMS float64
	busy                         map[string]float64 // backward-plan busy ms by task kind
	idleFrac                     float64            // idle share of the backward plans' stream time
	tasks                        int                // backward-plan tasks
	hiddenFrac                   float64
	slices                       int
	heapInuseMB                  float64
}

func observe(res *fsmoe.StepResult, wallMS float64) stepObs {
	o := stepObs{
		wallMS: wallMS, fwdMS: res.ForwardMS, bwdMS: res.BackwardMS, tailMS: res.TailMS,
		busy: map[string]float64{}, slices: res.Report.Slices + res.Report.TailSlices,
	}
	if res.Report.TotalBytes > 0 {
		o.hiddenFrac = res.Report.HiddenBytes / res.Report.TotalBytes
	}
	var busy, avail float64
	for i, tr := range res.Traces {
		o.tasks += res.Plans[i].Len()
		for k, ms := range tr.Breakdown() {
			o.busy[k] += ms
		}
		sb := tr.StreamBusy()
		for _, ms := range sb {
			busy += ms
		}
		avail += float64(len(sb)) * tr.Makespan
	}
	if avail > 0 {
		o.idleFrac = 1 - busy/avail
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	o.heapInuseMB = float64(m.HeapInuse) / 1e6
	return o
}

// commElems is the stack's cumulative collective traffic in elements.
func commElems(s *stack) float64 {
	total := 0.0
	for _, w := range s.worlds {
		st := w.Stats()
		total += st.IntraVolume + st.InterVolume
	}
	return total
}

// stepBlock times tracedN StepStack calls through the sampling primitive,
// each under a `step` span when tr is non-nil, and returns the per-step
// observations.
func (r *runner) stepBlock(s *stack, tr *tracer, firstID int) ([]stepObs, error) {
	var obs []stepObs
	id := firstID
	span := func() func() {
		sp := tr.begin("step", -1, id)
		id++
		return func() { tr.end(sp) }
	}
	_, err := r.timedSteps(sampling{n: r.p.tracedN}, s, r.cfg, "traced step", span, func(res *fsmoe.StepResult, ms float64) {
		obs = append(obs, observe(res, ms))
	})
	return obs, err
}

func column(obs []stepObs, f func(stepObs) float64) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = f(o)
	}
	return out
}

// manualSteps drives manualN decomposed steps by hand — Forward per layer,
// Backward per layer in reverse, then the blocking gradient
// synchronization — each call under its own child span of a manual_step
// parent. No SGD update follows, so the stack's parameters stay put.
func (r *runner) manualSteps(s *stack, firstID int) error {
	tr := r.tr
	var fwd, bwd, sync []float64
	id := firstID
	_, err := sampling{n: r.p.manualN}.run(func() error {
		for _, l := range s.layers {
			l.ZeroGrad()
		}
		root := tr.begin("manual_step", -1, id)
		defer func() { tr.end(root); id++ }()
		ms := map[string]float64{}
		err := forwardBackward(s.worlds, s.x, s.dy, func(dir string, i int) func() {
			sp := tr.begin(fmt.Sprintf("fsmoe.%s.%d", dir, i), root, id)
			return func() { tr.end(sp); ms[dir] += tr.ms(sp) }
		})
		if err != nil {
			return err
		}
		sp := tr.begin("fsmoe.sync", root, id)
		_, err = fsmoe.SyncGradients(s.worlds, r.cfg)
		tr.end(sp)
		if err != nil {
			return err
		}
		fwd, bwd, sync = append(fwd, ms["forward"]), append(bwd, ms["backward"]), append(sync, tr.ms(sp))
		return nil
	})
	r.checked("manual steps", err)
	if err != nil {
		return err
	}
	r.res.setStats("moe.world_fwd_ms", fwd)
	r.res.setStats("moe.world_bwd_ms", bwd)
	r.res.setStats("gradsync.sync_blocking_ms", sync)
	return nil
}

// traced is the traced run, separate from the timed one: a block of plain
// steps and a block of steps under spans (their difference is the tracing
// overhead), the hand-driven decomposed steps, then one probe per
// per-layer metric. The spans are written out when it ends.
func (r *runner) traced() error {
	r.tr = newTracer()
	sp := r.tr.begin("setup", -1, -1)
	s, err := r.setup()
	r.tr.end(sp)
	if err != nil {
		return err
	}
	defer s.close()

	plain, err := r.stepBlock(s, nil, 0)
	if err != nil {
		return err
	}
	elems0 := commElems(s)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	obs, err := r.stepBlock(s, r.tr, 0)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	steps := float64(len(obs))
	r.tr.count("steps", steps)
	r.tr.count("comm_elems", commElems(s)-elems0)
	r.tr.count("mallocs", float64(m1.Mallocs-m0.Mallocs))

	plainP50 := median(column(plain, func(o stepObs) float64 { return o.wallMS }))
	tracedP50 := median(column(obs, func(o stepObs) float64 { return o.wallMS }))
	res := r.res
	res.set("trace.overhead_frac", tracedP50/plainP50-1)
	res.set("moe.comm_elems_per_step", r.tr.counts["comm_elems"]/steps)
	res.set("mem.mallocs_per_step", r.tr.counts["mallocs"]/steps)
	res.set("moe.plan_tasks", float64(obs[0].tasks))
	res.set("gradsync.slices", float64(obs[0].slices))
	res.set("gradsync.hidden_frac", median(column(obs, func(o stepObs) float64 { return o.hiddenFrac })))
	res.setStats("gradsync.tail_ms", column(obs, func(o stepObs) float64 { return o.tailMS }))
	res.setStats("moe.step_outside_plans_ms", column(obs, func(o stepObs) float64 { return o.wallMS - o.fwdMS - o.bwdMS - o.tailMS }))
	res.set("moe.stream_idle_frac", median(column(obs, func(o stepObs) float64 { return o.idleFrac })))
	for _, k := range sim.Kinds() {
		res.set(busyMetric(k), median(column(obs, func(o stepObs) float64 { return o.busy[k] })))
	}
	maxHeap := 0.0
	for _, o := range obs {
		maxHeap = max(maxHeap, o.heapInuseMB)
	}
	res.set("mem.heap_inuse_mb_max", maxHeap)

	if err := r.manualSteps(s, len(obs)); err != nil {
		return err
	}
	pc := &probeCtx{
		s: s, pipeP50: plainP50,
		bwdP50: median(column(plain, func(o stepObs) float64 { return o.bwdMS })),
	}
	if err := r.runProbes(pc); err != nil {
		return err
	}
	return r.tr.write(filepath.Join(r.p.outDir, "trace_"+r.wl.name+".json"))
}
