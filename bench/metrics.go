package main

import (
	"strings"

	"repro/internal/sim"
)

// metricSpec names one reported number. BENCHMARK.json at the repository
// root lists the same names, units and directions (TestBenchmarkJSON keeps
// the two in step).
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// metric is one measured value as written to the result file.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the numbers a user of the training loop sees, measured with
// tracing off, and the ones a later commit is gated on. The two step times
// are the run's fastest samples, not its medians: on the shared 2-core
// reference box neighbours' cache and memory traffic slows a step by up to
// 45 % for seconds to tens of minutes at a time (single-threaded ALU and
// streaming kernels run beside the steps do not move, pointer chasing does),
// the noise only ever adds, and the minimum of a hundred steps is the
// estimate of the program's own time that it disturbs least (README.md,
// "Noise band"). Medians, the tail and throughput are reported beside them
// (timedInfo) without a bound. The wall-clock bounds are the widest the
// contract allows. Ratios such as moe.overlap_speedup are deliberately
// absent: they fall when GEMMs alone get faster, so gating on them would
// reject good kernel changes.
var endToEnd = []metricSpec{
	{"step_ms_min", "ms", "lower", 0.25},
	{"ckpt_step_ms_min", "ms", "lower", 0.25},
	{"alloc_mb_per_step", "MB", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// timedInfo are the timed run's other numbers: what the loop pays on the
// host as it happens to be. They follow the host's mood (ten-run spreads of
// 10-28 % in a busy hour), so they carry no bound and stay out of
// BENCHMARK.json and the driver's result line.
var timedInfo = []metricSpec{
	{Name: "step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "step_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "tokens_per_s", Unit: "tokens/s", Better: "higher"},
	{Name: "ckpt_step_ms_p50", Unit: "ms", Better: "lower"},
}

// busyMetric is the per-layer metric name of one task kind's busy time.
func busyMetric(kind string) string { return "moe.busy_ms." + strings.ToLower(kind) }

// perLayer are the numbers of single layers, measured in the traced run.
var perLayer = func() []metricSpec {
	lo := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	out := []metricSpec{
		hi("tensor.matmul_gflops", "GFLOP/s"),
		hi("tensor.matmul_t1_gflops", "GFLOP/s"),
		hi("tensor.matmul_t2_gflops", "GFLOP/s"),
		lo("tensor.pool_getput_ns", "ns"),
		lo("tensor.parallel_range_ns", "ns"),

		hi("comm.a2a_rows_gbs", "GB/s"),
		lo("comm.a2a_block_ms", "ms"),
		hi("comm.group_a2a_gbs", "GB/s"),
		hi("comm.allgather_rows_gbs", "GB/s"),
		hi("comm.reducescatter_rows_gbs", "GB/s"),
		hi("comm.group_allgather_gbs", "GB/s"),
		hi("comm.allreduce_chunk_gbs", "GB/s"),
		lo("comm.allreduce_full_ms", "ms"),
		hi("comm.broadcast_gbs", "GB/s"),
		lo("comm.guarded_overhead_ns", "ns"),

		lo("runtime.dispatch_us_per_task", "us"),
		lo("runtime.seq_us_per_task", "us"),
		lo("runtime.verify_us", "us"),

		lo("moe.layer_fwdbwd_ms", "ms"),
		lo("moe.world_fwd_ms", "ms"),
		lo("moe.world_bwd_ms", "ms"),
		lo("moe.world_seq_fwdbwd_ms", "ms"),
		lo("moe.step_seq_ms", "ms"),
		hi("moe.overlap_speedup", "ratio"),
		lo("moe.sim_gap", "ratio"),
		lo("moe.plan_tasks", "count"),
	}
	for _, k := range sim.Kinds() {
		out = append(out, lo(busyMetric(k), "ms"))
	}
	return append(out,
		lo("moe.stream_idle_frac", "frac"),
		lo("moe.step_outside_plans_ms", "ms"),
		lo("moe.comm_elems_per_step", "elems"),
		lo("moe.dropped_tokens_per_step", "count"),
		lo("moe.expert_load_imbalance", "ratio"),
		lo("moe.restore_ms", "ms"),
		lo("moe.recover_ms", "ms"),
		lo("moe.recover_moved_experts", "count"),

		hi("gradsync.hidden_frac", "frac"),
		lo("gradsync.slices", "count"),
		lo("gradsync.tail_ms", "ms"),
		lo("gradsync.sync_blocking_ms", "ms"),

		lo("ckpt.snapshot_ms", "ms"),
		hi("ckpt.encode_mbs", "MB/s"),
		hi("ckpt.save_mbs", "MB/s"),
		hi("ckpt.load_mbs", "MB/s"),
		lo("ckpt.bytes", "bytes"),

		lo("core.algo1_us", "us"),
		lo("core.grid_us", "us"),
		lo("core.partition_us", "us"),
		hi("sim.des_tasks_per_s", "1/s"),
		hi("core.sim_speedup_vs_dsmoe", "ratio"),
		lo("fsmoe.newworld_ms", "ms"),
		lo("fsmoe.auto_pick_g", "count"),
		lo("fsmoe.auto_pick_r_fwd", "count"),
		lo("fsmoe.auto_pick_r_bwd", "count"),
		lo("fsmoe.auto_regret", "ratio"),

		lo("telemetry.onstep_ns", "ns"),
		lo("telemetry.chrometrace_ms", "ms"),
		lo("mem.mallocs_per_step", "count"),
		lo("mem.heap_inuse_mb_max", "MB"),
		lo("trace.overhead_frac", "frac"),
	)
}()

// specByName finds a metric in any table.
func specByName(name string) (metricSpec, bool) {
	for _, tab := range [][]metricSpec{endToEnd, timedInfo, perLayer} {
		for _, s := range tab {
			if s.Name == name {
				return s, true
			}
		}
	}
	return metricSpec{}, false
}
