package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/fsmoe"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/moe"
	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/topology"
	presets "repro/internal/workload"
)

// probeCtx is what the probes share: the warmed stack of the traced run,
// the numbers its plain step block measured, and the shapes one step of
// this workload hands each layer — every probe measures its layer at the
// workload's own sizes, from outside, through the layer's public functions.
type probeCtx struct {
	s       *stack
	pipeP50 float64           // plain pipelined step wall, p50
	bwdP50  float64           // its summed backward-plan makespans, p50
	last    *fsmoe.StepResult // one pipelined step: plans, traces, replicas

	spad, tpad int // padded per-source and per-expert capacity rows
	rBwd       int // backward pipeline degree
	chunkRows  int // rows of one expert chunk
	workers    int // compute-stream worker share
	params     int // parameters of the whole stack
}

// probe measures the metric it is named after (and any siblings its fn
// sets) under a probe.<metric> span.
type probe struct {
	metric string
	fn     func(r *runner, pc *probeCtx) error
}

// perCall samples fn, batch calls per sample, and returns milliseconds per
// call. before runs ahead of every sample outside the timed window.
func (r *runner) perCall(batch int, before func(), fn func() error) ([]float64, error) {
	s := sampling{warmup: 2, n: r.p.probeN}
	if before != nil {
		s.before = func(int) { before() }
	}
	samples, err := s.run(func() error {
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	})
	for i := range samples {
		samples[i] /= float64(batch)
	}
	return samples, err
}

// setRate records work per second — work units per call over the sampled
// milliseconds per call, scaled by unit (1e9 for G, 1e6 for M).
func (r *runner) setRate(name string, work, unit float64, ms []float64) {
	rates := make([]float64, len(ms))
	for i, v := range ms {
		rates[i] = work / (v / 1e3) / unit
	}
	r.res.setStats(name, rates)
}

func (r *runner) runProbes(pc *probeCtx) error {
	var err error
	if pc.last, err = r.stepChecked(pc.s, r.cfg, "probe step"); err != nil {
		return err
	}
	wl := r.wl
	pc.spad = (moe.CapacityFor(wl.N, experts, topK, capacity) + ranks - 1) / ranks
	pc.tpad = pc.spad * ranks
	_, pc.rBwd = pc.s.worlds[0].PipelineDegrees()
	pc.chunkRows = max(1, pc.tpad/pc.rBwd)
	pc.workers, _ = pc.s.worlds[0].ResourcePlan()
	pc.params = len(pc.last.RankParams[0])
	for _, p := range probes {
		sp := r.tr.begin("probe."+p.metric, -1, -1)
		err := p.fn(r, pc)
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.metric, err)
		}
	}
	return nil
}

var probes = []probe{
	gemmProbe("tensor.matmul_gflops", (*tensor.Pool).MatMulInto, func(rows, m, h int) [3][2]int {
		return [3][2]int{{rows, h}, {rows, m}, {m, h}}
	}),
	gemmProbe("tensor.matmul_t1_gflops", (*tensor.Pool).MatMulT1Into, func(rows, m, h int) [3][2]int {
		return [3][2]int{{m, h}, {rows, m}, {rows, h}}
	}),
	gemmProbe("tensor.matmul_t2_gflops", (*tensor.Pool).MatMulT2Into, func(rows, m, h int) [3][2]int {
		return [3][2]int{{rows, m}, {rows, h}, {m, h}}
	}),
	{"tensor.pool_getput_ns", func(r *runner, pc *probeCtx) error {
		ms, err := r.perCall(2000, nil, func() error {
			tensor.Put(tensor.Get(pc.chunkRows, r.wl.H))
			return nil
		})
		r.res.setStats("tensor.pool_getput_ns", scale(ms, 1e6))
		return err
	}},
	{"tensor.parallel_range_ns", func(r *runner, pc *probeCtx) error {
		// An empty body over a range long enough that the pool fans out
		// (short ranges run serially on the caller): the fork-join cost.
		const fanOut = 1 << 16
		pool := tensor.NewPool(max(2, pc.workers)) // a pool of one never forks
		defer pool.Close()
		ms, err := r.perCall(2000, nil, func() error {
			pool.ParallelRange(fanOut, func(lo, hi int) {})
			return nil
		})
		r.res.setStats("tensor.parallel_range_ns", scale(ms, 1e6))
		return err
	}},

	{"comm.a2a_rows_gbs", probeA2A},
	{"comm.allgather_rows_gbs", probeGatherScatter},
	{"comm.allreduce_chunk_gbs", probeAllReduce},
	{"comm.broadcast_gbs", func(r *runner, pc *probeCtx) error {
		// One expert's weights, the unit Recover re-places.
		data := rankBuffers(ranks, 2*r.wl.M*r.wl.H)
		ms, err := r.perCall(4, nil, func() error {
			_, err := comm.Broadcast(data, 0, ranks)
			return err
		})
		r.setRate("comm.broadcast_gbs", 8*float64((ranks-1)*len(data[0])), 1e9, ms)
		return err
	}},
	{"comm.guarded_overhead_ns", func(r *runner, pc *probeCtx) error {
		// The nil-guard twin against the plain call on a one-row chunk:
		// the price of the guarded entry points, which the collapse of
		// the collective surface into one value must keep at nothing.
		dims := comm.BlockDims{Rows: pc.spad, Width: experts / ranks * r.wl.M}
		data, out := rankBuffers(ranks, ranks*dims.Elems()), rankBuffers(ranks, ranks*dims.Elems())
		one := comm.RowRange{Lo: 0, Hi: 1}
		// The two are timed back to back inside each sample, in alternating
		// order, and the sample is their difference: taken from separate
		// sample sets, host drift between the sets swamps a nanosecond.
		const batch = 200
		calls := [2]func() error{
			func() error {
				_, err := comm.AlltoAllRows(comm.A2ADirect, data, out, ranks, dims, one)
				return err
			},
			func() error {
				_, err := comm.AlltoAllRowsGuarded(nil, comm.A2ADirect, data, out, ranks, dims, one)
				return err
			},
		}
		var diffs []float64
		first := 0
		_, err := r.perCall(1, nil, func() error {
			var ns [2]int64
			for _, which := range [2]int{first, 1 - first} {
				t0 := time.Now()
				for i := 0; i < batch; i++ {
					if err := calls[which](); err != nil {
						return err
					}
				}
				ns[which] = time.Since(t0).Nanoseconds()
			}
			diffs = append(diffs, float64(ns[1]-ns[0])/batch)
			first = 1 - first
			return nil
		})
		if err != nil {
			return err
		}
		r.res.setStats("comm.guarded_overhead_ns", diffs[2:]) // the first two are perCall's warm-up
		return nil
	}},

	{"runtime.dispatch_us_per_task", probeDispatch},
	{"sim.des_tasks_per_s", func(r *runner, pc *probeCtx) error {
		tasks := 0
		for _, p := range pc.last.Plans {
			tasks += p.Len()
		}
		ms, err := r.perCall(4, nil, func() error {
			for _, p := range pc.last.Plans {
				p.Simulate()
			}
			return nil
		})
		r.setRate("sim.des_tasks_per_s", float64(tasks), 1, ms)
		return err
	}},

	{"moe.layer_fwdbwd_ms", probeLayerBaseline},
	{"moe.world_seq_fwdbwd_ms", func(r *runner, pc *probeCtx) error {
		s := pc.s
		for _, w := range s.worlds {
			w.SetSequential(true)
			defer w.SetSequential(false)
		}
		ms, err := r.perCall(1, nil, func() error { return forwardBackward(s.worlds, s.x, s.dy, nil) })
		r.res.setStats("moe.world_seq_fwdbwd_ms", ms)
		return err
	}},
	{"moe.step_seq_ms", func(r *runner, pc *probeCtx) error {
		// The same step on one goroutine. Its measured stage durations fed
		// through the discrete-event simulator predict the pipelined
		// backward makespan; sim_gap is how far the machine is from that.
		cfg := r.cfg
		cfg.Sequential, cfg.Checkpoint = true, nil
		var predicted []float64
		ms, err := r.timedSteps(sampling{warmup: 1, n: r.p.probeN}, pc.s, cfg, "sequential step", nil, func(res *fsmoe.StepResult, _ float64) {
			sum := 0.0
			for i, p := range res.Plans {
				sum += p.SimulateWith(runtime.Durations(res.Traces[i])).Makespan
			}
			predicted = append(predicted, sum)
		})
		if err != nil {
			return err
		}
		seq := r.res.setStats("moe.step_seq_ms", ms)
		r.res.set("moe.overlap_speedup", seq.P50/pc.pipeP50)
		r.res.set("moe.sim_gap", pc.bwdP50/median(predicted))
		return nil
	}},
	{"moe.restore_ms", probeCheckpoint},
	{"moe.recover_ms", probeRecover},

	{"core.algo1_us", func(r *runner, pc *probeCtx) error {
		m := core.ModelsFromCluster(topology.TestbedA())
		v := r.wl.volumes(fsmoe.StrategyEP)
		ms, err := r.perCall(50, nil, func() error {
			m.FindOptimalPipelineDegree(v, 0, core.Backward, 16)
			return nil
		})
		r.res.setStats("core.algo1_us", scale(ms, 1e3))
		return err
	}},
	{"core.grid_us", func(r *runner, pc *probeCtx) error {
		m := core.ModelsFromCluster(topology.TestbedA())
		volsFor := func(g int) core.Volumes {
			if g == ranks {
				return r.wl.volumes(fsmoe.StrategyESP)
			}
			return r.wl.volumes(fsmoe.StrategyEP)
		}
		ms, err := r.perCall(20, nil, func() error {
			m.FindOptimalPipelineGrid([]int{1, ranks}, volsFor, 0, core.Backward, 16)
			return nil
		})
		r.res.setStats("core.grid_us", scale(ms, 1e3))
		return err
	}},
	{"core.partition_us", func(r *runner, pc *probeCtx) error {
		m := core.ModelsFromCluster(topology.TestbedA())
		specs := make([]core.LayerSpec, len(r.wl.layers))
		for i := range specs {
			specs[i] = core.LayerSpec{V: r.wl.volumes(fsmoe.StrategyEP)}
		}
		ms, err := r.perCall(1, nil, func() error {
			m.PartitionGradients(specs, 16)
			return nil
		})
		r.res.setStats("core.partition_us", scale(ms, 1e3))
		return err
	}},
	{"core.sim_speedup_vs_dsmoe", func(r *runner, pc *probeCtx) error {
		// The paper's headline on its own terms: one GPT2-XL MoE layer on
		// Testbed A, simulated under DS-MoE and under FSMoE. Exact.
		c := topology.TestbedA()
		sc, err := topology.CanonicalScenario(c, 1)
		if err != nil {
			return err
		}
		m := core.ModelsFromCluster(c)
		cfg := presets.GPT2XLMoE(c).Layer
		cfg.B, cfg.L = 4, 1024
		v := presets.VolumesFor(cfg, sc)
		ds, err := m.SimulateSingleLayer(v, core.SystemDSMoE, core.BuildOptions{})
		if err != nil {
			return err
		}
		fs, err := m.SimulateSingleLayer(v, core.SystemFSMoE, core.BuildOptions{})
		if err != nil {
			return err
		}
		r.res.set("core.sim_speedup_vs_dsmoe", ds.Total/fs.Total)
		return nil
	}},
	{"fsmoe.newworld_ms", func(r *runner, pc *probeCtx) error {
		var l *fsmoe.Layer
		var lerr error
		ms, err := r.perCall(1, func() { l, lerr = r.wl.newLayer(r.p.seed, 0) }, func() error {
			if lerr != nil {
				return lerr
			}
			w, err := fsmoe.NewWorld(l, r.wl.worldConfig(0, variant{}, nil))
			if err != nil {
				return err
			}
			return w.Close()
		})
		r.res.setStats("fsmoe.newworld_ms", ms)
		return err
	}},
	{"fsmoe.auto_regret", func(r *runner, pc *probeCtx) error {
		// The same layers with strategy, group size and degrees left to
		// Algorithm 1 (default Testbed-A models), against the workload as
		// configured: what the planner picks for layer 0, and what the pick
		// costs. The two stacks are stepped back to back, so the host's
		// drift cancels out of the ratio.
		alt, err := r.wl.build(r.p.seed, variant{auto: true})
		if err != nil {
			return err
		}
		defer alt.close()
		w0 := alt.worlds[0]
		g := w0.GroupSize()
		switch w0.Strategy() {
		case fsmoe.StrategyEP:
			g = 1
		case fsmoe.StrategyESP:
			g = ranks
		}
		fwd, bwd := w0.PipelineDegrees()
		r.res.set("fsmoe.auto_pick_g", float64(g))
		r.res.set("fsmoe.auto_pick_r_fwd", float64(fwd))
		r.res.set("fsmoe.auto_pick_r_bwd", float64(bwd))
		auto, err := r.timedSteps(sampling{warmup: 3, n: r.p.tracedN}, alt, stepConfig(), "StrategyAuto step", nil, nil)
		if err != nil {
			return err
		}
		own, err := r.timedSteps(sampling{n: r.p.tracedN}, pc.s, r.cfg, "regret baseline step", nil, nil)
		if err != nil {
			return err
		}
		r.res.set("fsmoe.auto_regret", median(auto)/median(own))
		return nil
	}},

	{"telemetry.chrometrace_ms", func(r *runner, pc *probeCtx) error {
		tr := pc.last.Traces[0]
		ms, err := r.perCall(2, nil, func() error {
			_, err := fsmoe.ChromeTraceJSON(r.wl.name, tr)
			return err
		})
		r.res.setStats("telemetry.chrometrace_ms", ms)
		return err
	}},
}

func scale(v []float64, by float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * by
	}
	return out
}

// rankBuffers allocates one zeroed buffer of n elements per rank. Zeros
// keep in-place reductions finite over any number of repeats, and copy and
// add cost the same on every value.
func rankBuffers(p, n int) [][]float64 {
	out := make([][]float64, p)
	for i := range out {
		out[i] = make([]float64, n)
	}
	return out
}

// gemmProbe times one Into-kernel at the expert-chunk shape (rows × M
// against M × H) on a scoped pool of the world's compute-stream width.
// shapes gives dst, a and b.
func gemmProbe(name string, kernel func(p *tensor.Pool, dst, a, b *tensor.Tensor), shapes func(rows, m, h int) [3][2]int) probe {
	return probe{name, func(r *runner, pc *probeCtx) error {
		pool := tensor.NewPool(pc.workers)
		defer pool.Close()
		sh := shapes(pc.chunkRows, r.wl.M, r.wl.H)
		dst := tensor.Get(sh[0][0], sh[0][1])
		defer tensor.Put(dst)
		a := fsmoe.RandTensor(inputSeed(r.p.seed), sh[1][0], sh[1][1])
		b := fsmoe.RandTensor(gradSeed(r.p.seed), sh[2][0], sh[2][1])
		flop := 2 * float64(pc.chunkRows) * float64(r.wl.M) * float64(r.wl.H)
		ms, err := r.perCall(max(1, int(2e7/flop)), nil, func() error {
			kernel(pool, dst, a, b)
			return nil
		})
		r.setRate(name, flop, 1e9, ms)
		return err
	}}
}

// probeA2A covers the token exchange of expert parallelism at the
// workload's dispatch shape: one pipeline chunk, the whole block in r
// chunks, and the group-scoped exchange between two hybrid lanes.
func probeA2A(r *runner, pc *probeCtx) error {
	dims := comm.BlockDims{Rows: pc.spad, Width: experts / ranks * r.wl.M}
	data, out := rankBuffers(ranks, ranks*dims.Elems()), rankBuffers(ranks, ranks*dims.Elems())
	chunk := comm.SplitRows(dims.Rows, pc.rBwd)[0]
	ms, err := r.perCall(8, nil, func() error {
		_, err := comm.AlltoAllRows(comm.A2ADirect, data, out, ranks, dims, chunk)
		return err
	})
	if err != nil {
		return err
	}
	r.setRate("comm.a2a_rows_gbs", 8*float64(ranks*ranks*chunk.Len()*dims.Width), 1e9, ms)

	ms, err = r.perCall(2, nil, func() error {
		_, _, err := comm.ChunkedAlltoAll(comm.A2ADirect, data, ranks, dims, pc.rBwd, nil)
		return err
	})
	if err != nil {
		return err
	}
	r.res.setStats("comm.a2a_block_ms", ms)

	group := []int{0, 2}
	g := len(group)
	gdata, gout := rankBuffers(ranks, g*dims.Elems()), rankBuffers(ranks, g*dims.Elems())
	ms, err = r.perCall(8, nil, func() error {
		_, err := comm.GroupAlltoAllRows(comm.A2ADirect, group, gdata, gout, ranks, dims, chunk)
		return err
	})
	r.setRate("comm.group_a2a_gbs", 8*float64(g*g*chunk.Len()*dims.Width), 1e9, ms)
	return err
}

// probeGatherScatter covers the ring collectives of expert-sharding
// parallelism at the workload's ESP block shape.
func probeGatherScatter(r *runner, pc *probeCtx) error {
	dims := comm.BlockDims{Rows: pc.spad, Width: experts * r.wl.M}
	chunk := comm.SplitRows(dims.Rows, pc.rBwd)[0]
	small, big := rankBuffers(ranks, dims.Elems()), rankBuffers(ranks, ranks*dims.Elems())
	moved := 8 * float64(ranks*(ranks-1)*chunk.Len()*dims.Width)
	ms, err := r.perCall(4, nil, func() error {
		_, err := comm.AllGatherRows(small, big, ranks, dims, chunk)
		return err
	})
	if err != nil {
		return err
	}
	r.setRate("comm.allgather_rows_gbs", moved, 1e9, ms)

	ms, err = r.perCall(4, nil, func() error {
		_, err := comm.ReduceScatterRows(big, small, ranks, dims, chunk)
		return err
	})
	if err != nil {
		return err
	}
	r.setRate("comm.reducescatter_rows_gbs", moved, 1e9, ms)

	group := []int{0, 1}
	g := len(group)
	gbig := rankBuffers(ranks, g*dims.Elems())
	ms, err = r.perCall(4, nil, func() error {
		_, err := comm.GroupAllGatherRows(group, small, gbig, ranks, dims, chunk)
		return err
	})
	r.setRate("comm.group_allgather_gbs", 8*float64(g*(g-1)*chunk.Len()*dims.Width), 1e9, ms)
	return err
}

// probeAllReduce covers §5's gradient synchronization at the stack's own
// gradient size: one slice as the backward plans embed it, and the whole
// gradient as the exposed tail would pay it.
func probeAllReduce(r *runner, pc *probeCtx) error {
	data := rankBuffers(ranks, pc.params)
	slices := max(1, pc.last.Report.Slices+pc.last.Report.TailSlices)
	slice := comm.SplitFlat(pc.params, slices)[0]
	ms, err := r.perCall(2, nil, func() error {
		_, err := comm.RingAllReduceChunk(data, ranks, slice)
		return err
	})
	if err != nil {
		return err
	}
	// A ring AllReduce moves 2(p-1)/p of the buffer per rank.
	r.setRate("comm.allreduce_chunk_gbs", 8*2*float64((ranks-1)*slice.Len()), 1e9, ms)
	ms, err = r.perCall(1, nil, func() error {
		_, err := comm.RingAllReduce(data, ranks)
		return err
	})
	r.res.setStats("comm.allreduce_full_ms", ms)
	return err
}

// probeDispatch replays the workload's backward plans with empty task
// bodies: what is left is the runtime's own cost per task, pipelined and
// sequential — the floor that caps the useful pipeline degree.
func probeDispatch(r *runner, pc *probeCtx) error {
	tasks := 0
	replicas := make([]*runtime.Plan, len(pc.last.Plans))
	rebuild := func() {
		tasks = 0
		for i, p := range pc.last.Plans {
			q := runtime.NewPlan()
			for s, b := range p.Bindings() {
				q.BindStream(s, b)
			}
			for _, t := range p.Tasks() {
				q.Add(t.Label, t.Kind, t.Stream, t.Est, func() error { return nil }, t.Deps...)
			}
			replicas[i] = q
			tasks += q.Len()
		}
	}
	ms, err := r.perCall(1, rebuild, func() error {
		for _, q := range replicas {
			if _, err := q.Execute(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.setStats("runtime.dispatch_us_per_task", scale(ms, 1e3/float64(tasks)))
	ms, err = r.perCall(1, rebuild, func() error {
		for _, q := range replicas {
			if _, err := q.ExecuteSequential(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.setStats("runtime.seq_us_per_task", scale(ms, 1e3/float64(tasks)))
	ms, err = r.perCall(1, rebuild, func() error {
		for _, q := range replicas {
			if err := q.Verify(); err != nil {
				return err
			}
		}
		return nil
	})
	r.res.setStats("runtime.verify_us", scale(ms, 1e3))
	return err
}

// probeLayerBaseline is the plain single-worker run of the same task: the
// workload's layers as single-rank fsmoe.Layers, forward and backward, no
// world, no collectives, no pipeline.
func probeLayerBaseline(r *runner, pc *probeCtx) error {
	layers := make([]*fsmoe.Layer, len(r.wl.layers))
	for i := range layers {
		l, err := r.wl.newLayer(r.p.seed, i)
		if err != nil {
			return err
		}
		layers[i] = l
	}
	ms, err := r.perCall(1, nil, func() error {
		for _, l := range layers {
			l.ZeroGrad()
		}
		return forwardBackward(layers, pc.s.x, pc.s.dy, nil)
	})
	r.res.setStats("moe.layer_fwdbwd_ms", ms)
	return err
}

// probeCheckpoint splits the checkpoint stall into its stages: snapshot
// the stack, encode, write (temp file, fsync, rename), read back, restore.
func probeCheckpoint(r *runner, pc *probeCtx) error {
	worlds := pc.s.worlds
	var snap *fsmoe.Snapshot
	ms, err := r.perCall(1, nil, func() error {
		snap = fsmoe.Checkpoint(worlds)
		return nil
	})
	if err != nil {
		return err
	}
	r.res.setStats("ckpt.snapshot_ms", ms)

	var raw []byte
	ms, err = r.perCall(1, nil, func() (err error) {
		raw, err = ckpt.Encode(snap)
		return err
	})
	if err != nil {
		return err
	}
	mb := float64(len(raw)) / 1e6
	r.res.set("ckpt.bytes", float64(len(raw)))
	r.setRate("ckpt.encode_mbs", mb, 1, ms)

	path := filepath.Join(r.mgr.Dir, "probe.fsmc")
	ms, err = r.perCall(1, nil, func() error { return ckpt.Save(path, snap) })
	if err != nil {
		return err
	}
	r.setRate("ckpt.save_mbs", mb, 1, ms)
	ms, err = r.perCall(1, nil, func() error {
		_, err := ckpt.Load(path)
		return err
	})
	if err != nil {
		return err
	}
	r.setRate("ckpt.load_mbs", mb, 1, ms)

	ms, err = r.perCall(1, nil, func() error { return fsmoe.Restore(worlds, snap) })
	r.res.setStats("moe.restore_ms", ms)
	return err
}

// probeRecover times elastic recovery on scratch clones of the stack: step,
// snapshot, lose rank 1 for good, survive one degraded step, then Recover
// by shrinking onto the survivors. The clones carry a telemetry sink, so
// they also supply the routing-health and sink-cost numbers on workloads
// whose own worlds have none.
func probeRecover(r *runner, pc *probeCtx) error {
	var recoverMS, dropped, imbalance []float64
	moved := 0
	var lastMetrics *fsmoe.StepMetrics
	var sink *fsmoe.RegistrySink
	for i := 0; i < 3; i++ {
		err := func() error {
			c, err := r.wl.build(r.p.seed, variant{sink: true})
			if err != nil {
				return err
			}
			defer c.close()
			res, err := r.stepChecked(c, stepConfig(), "clone step")
			if err != nil {
				return err
			}
			lastMetrics, sink = res.Metrics, fsmoe.NewRegistrySink(c.reg)
			dropped = append(dropped, float64(res.Metrics.DroppedTokens))
			imbalance = append(imbalance, res.Metrics.ExpertImbalance)
			snap := fsmoe.Checkpoint(c.worlds)
			c.worlds[0].SetFaultPlan(fsmoe.NewFaultPlan(fsmoe.FaultSpec{
				Seed: r.p.seed, Down: &fsmoe.FaultDown{Rank: 1, Kind: fsmoe.KindExperts},
			}))
			if _, err := r.stepChecked(c, stepConfig(), "degraded step"); err != nil {
				return err
			}
			var reports []*fsmoe.RecoveryReport
			ms, err := sampling{n: 1}.run(func() (err error) {
				reports, err = fsmoe.Recover(c.worlds, snap, fsmoe.RecoveryPolicy{Mode: fsmoe.RecoverShrink})
				return err
			})
			if err != nil {
				return err
			}
			recoverMS = append(recoverMS, ms[0])
			moved = 0
			for _, rep := range reports {
				moved += len(rep.MovedExperts)
			}
			_, err = r.stepChecked(c, stepConfig(), "recovered step")
			return err
		}()
		if err != nil {
			return err
		}
	}
	r.res.setStats("moe.recover_ms", recoverMS)
	r.res.set("moe.recover_moved_experts", float64(moved))
	r.res.set("moe.dropped_tokens_per_step", median(dropped))
	r.res.set("moe.expert_load_imbalance", median(imbalance))

	ms, err := r.perCall(2000, nil, func() error {
		sink.OnStep(lastMetrics)
		return nil
	})
	r.res.setStats("telemetry.onstep_ns", scale(ms, 1e6))
	return err
}

// volumes are the Algorithm-1 scheduling volumes of one layer of the
// workload under a strategy, from its shape alone: dispatched activation
// bytes on the wire, expert multiply-accumulates, gradient bytes.
func (wl workload) volumes(strat fsmoe.Strategy) core.Volumes {
	dispatched := float64(topK) * capacity * float64(wl.N)
	wire := dispatched * float64(wl.M) * presets.ActivationBytes
	v := core.Volumes{
		ExpMACs: dispatched * 2 * float64(wl.M) * float64(wl.H), ExpGEMMs: 2,
		DenseFwd: 0.1, DenseBwd: 0.2,
		GradBytes: float64(experts*2*wl.M*wl.H) * presets.ActivationBytes,
	}
	if strat == fsmoe.StrategyESP {
		v.NAG = wire + dispatched*float64(wl.H)*presets.ActivationBytes
		v.NRS = wire
	} else {
		v.NA2A = wire
	}
	return v
}
