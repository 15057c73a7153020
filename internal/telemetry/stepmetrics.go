package telemetry

import (
	"math"

	"repro/internal/sim"
)

// StepMetrics is the structured record of one training step over a World
// stack — the machine-readable counterpart of the bench tables, emitted
// to the configured Sink after every step and attached to the step
// result. Every field derives from quantities the step already measured
// (traces, routing plans, sync report); nothing here adds
// instrumentation to the execution hot path.
type StepMetrics struct {
	// Identity of the executing configuration.
	Step      int    `json:"step"`   // 0-based step ordinal on this stack
	Ranks     int    `json:"ranks"`  // R
	Layers    int    `json:"layers"` // stack depth
	Strategy  string `json:"strategy"`
	GroupSize int    `json:"group_size,omitempty"` // hybrid g (0 otherwise)
	DegreeFwd int    `json:"degree_fwd"`           // forward pipeline degree r
	DegreeBwd int    `json:"degree_bwd"`

	// Wall-time decomposition (ms, measured). WallMS is the step's full
	// wall, entry to StepWorlds through the SGD update and any checkpoint
	// write; the three below it are the parts spent inside measured stream
	// plans and the exposed tail; the rest is the step outside them.
	WallMS     float64 `json:"wall_ms"`
	ForwardMS  float64 `json:"forward_ms"`  // summed forward-plan makespans
	BackwardMS float64 `json:"backward_ms"` // summed backward-plan makespans (hidden AllReduce included)
	TailMS     float64 `json:"tail_ms"`     // exposed Gradient-AllReduce tail (§5)

	// Checkpoint stall on steps that hit the checkpoint cadence (ms, zero
	// on the others): CheckpointWaitMS waiting for the previous commit
	// still in flight, CheckpointCaptureMS taking the stack's snapshot as
	// views and encoding its header and metadata before the commit, which
	// reads the parameters where they are, runs on behind the next steps.
	// Both lie outside the plans and the tail.
	CheckpointWaitMS    float64 `json:"checkpoint_wait_ms,omitempty"`
	CheckpointCaptureMS float64 `json:"checkpoint_capture_ms,omitempty"`

	// Overlap: SerialMS is the summed duration of every measured task
	// interval across the step's stream plans — what a no-overlap executor
	// would have spent — and OverlapRatio is SerialMS over the pipelined
	// wall (ForwardMS+BackwardMS): 1.0 means no overlap was realized,
	// values above 1 count how many streams' worth of work ran
	// concurrently on average.
	SerialMS     float64 `json:"serial_ms"`
	OverlapRatio float64 `json:"overlap_ratio"`

	// Per-stream busy time (ms) summed across the step's measured traces,
	// and the busy fraction of the pipelined wall.
	StreamBusyMS   map[string]float64 `json:"stream_busy_ms,omitempty"`
	StreamBusyFrac map[string]float64 `json:"stream_busy_frac,omitempty"`

	// Routing load (the FlexMoE signal): ExpertTokens[l][e] is the number
	// of real tokens the forward pass routed to layer l's expert e
	// (capacity-padded slots excluded), ExpertEntropy the normalized
	// utilization entropy of the pooled distribution in [0,1] (1 =
	// perfectly balanced), ExpertImbalance the max/mean load factor
	// (1 = balanced; FlexMoE's re-placement trigger), and DroppedTokens
	// the (token, choice) assignments lost to capacity overflow.
	ExpertTokens    [][]int `json:"expert_tokens,omitempty"`
	ExpertEntropy   float64 `json:"expert_entropy"`
	ExpertImbalance float64 `json:"expert_imbalance"`
	DroppedTokens   int     `json:"dropped_tokens"`

	// Fault-tolerance incidents observed across the step's measured
	// traces, plus degraded-mode passes (internal/fault, PR 6).
	Faults         int `json:"faults"`
	Retries        int `json:"retries"`
	Stragglers     int `json:"stragglers"`
	Skips          int `json:"skips"`
	DegradedPasses int `json:"degraded_passes"`

	// Elastic-recovery events completed since the previous step (PR 10):
	// how many worlds rebuilt around a permanent rank loss, and the summed
	// rebuild wall time — the step-level MTTR signal.
	Recoveries int     `json:"recoveries,omitempty"`
	RecoveryMS float64 `json:"recovery_ms,omitempty"`

	// Gradient-sync accounting (§5): bytes hidden inside backward plans
	// vs bytes left to the exposed tail.
	SyncHiddenBytes float64 `json:"sync_hidden_bytes"`
	SyncTailBytes   float64 `json:"sync_tail_bytes"`
}

// AddTrace folds one measured trace's intervals and incident events into
// the serial-time, per-stream-busy and fault tallies. Call once per
// stream plan the step executed, then Finalize.
func (m *StepMetrics) AddTrace(tr *sim.Trace) {
	if tr == nil {
		return
	}
	if m.StreamBusyMS == nil {
		m.StreamBusyMS = make(map[string]float64)
	}
	for _, iv := range tr.Intervals {
		d := iv.Finish - iv.Start
		m.SerialMS += d
		m.StreamBusyMS[iv.Task.Stream] += d
	}
	for _, ev := range tr.Events {
		switch ev.Type {
		case sim.EventFault:
			m.Faults++
		case sim.EventRetry:
			m.Retries++
		case sim.EventStraggler:
			m.Stragglers++
		case sim.EventSkip:
			m.Skips++
		}
	}
}

// AddExpertLoad appends one layer's per-expert routed token counts.
func (m *StepMetrics) AddExpertLoad(tokens []int) {
	m.ExpertTokens = append(m.ExpertTokens, tokens)
}

// Finalize computes the derived statistics — overlap ratio, busy
// fractions, load entropy and imbalance — from the accumulated raw
// tallies. Call after every AddTrace/AddExpertLoad.
func (m *StepMetrics) Finalize() {
	if wall := m.ForwardMS + m.BackwardMS; wall > 0 {
		m.OverlapRatio = m.SerialMS / wall
		m.StreamBusyFrac = make(map[string]float64, len(m.StreamBusyMS))
		for s, busy := range m.StreamBusyMS {
			m.StreamBusyFrac[s] = busy / wall
		}
	}
	m.ExpertEntropy, m.ExpertImbalance = LoadStats(m.ExpertTokens)
}

// LoadStats computes the normalized utilization entropy (in [0,1], 1 =
// uniform) and the max/mean imbalance factor (>= 1, 1 = balanced) of a
// pooled per-expert load distribution. Empty or all-zero loads report
// (0, 0) — there is no distribution to measure.
func LoadStats(layers [][]int) (entropy, imbalance float64) {
	total, n, maxLoad := 0.0, 0, 0.0
	for _, layer := range layers {
		for _, c := range layer {
			if c < 0 {
				c = 0
			}
			total += float64(c)
			n++
			if float64(c) > maxLoad {
				maxLoad = float64(c)
			}
		}
	}
	if n == 0 || total == 0 {
		return 0, 0
	}
	h := 0.0
	for _, layer := range layers {
		for _, c := range layer {
			if c <= 0 {
				continue
			}
			p := float64(c) / total
			h -= p * math.Log(p)
		}
	}
	if n > 1 {
		entropy = h / math.Log(float64(n))
	} else {
		entropy = 1
	}
	mean := total / float64(n)
	imbalance = maxLoad / mean
	return entropy, imbalance
}
