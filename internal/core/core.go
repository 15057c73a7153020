// Package core implements the paper's primary contribution: performance-
// model-driven task scheduling for MoE training.
//
// It contains
//
//   - the linear task-duration models of §4.1 (thin wrappers over
//     internal/perfmodel) and the per-layer volume description;
//   - the pipeline-degree optimizer of §4.2–4.3: predicates Q1–Q7, the four
//     schedule cases of Fig. 4, the closed-form case objectives, and
//     Algorithm 1 (FindOptimalPipelineDegree), solved per phase (§4.4);
//   - the adaptive gradient-partitioning method of §5 (greedy Step 1 over
//     overlappable windows, then Step 2's stretch assignment, Eq. 5);
//   - schedule builders that emit discrete-event graphs (internal/sim) for
//     FSMoE and for every baseline the paper compares against:
//     DeepSpeed-MoE, Tutel (PipeMoE), Tutel-Improved, PipeMoE+Lina, and
//     FSMoE-No-IIO.
//
// The paper hands both planning problems to continuous solvers: SLSQP on
// the four case objectives, rounded to an integer degree (Algorithm 1), and
// differential evolution for Step 2. Here both minimize the same
// objectives exactly on their own discrete domains: Algorithm 1 evaluates
// the piecewise closed form at every integer degree up to the cap, and
// Step 2 is a dynamic program over a byte grid of 64 equal parts
// of the remaining gradient pool, one term per layer plus the tail.
//
// All durations are milliseconds; volumes are bytes (collectives) or
// multiply-accumulates (compute).
package core

import (
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/topology"
)

// Models bundles the fitted linear performance models the scheduler
// consumes (§4.1).
type Models struct {
	A2A     perfmodel.Linear // hierarchical AlltoAll (2DH) — inter-node
	A2AFlat perfmodel.Linear // direct AlltoAll (DeepSpeed-MoE) — inter-node
	AG      perfmodel.Linear // ESP-AllGather — intra-node
	RS      perfmodel.Linear // ESP-ReduceScatter — intra-node
	AR      perfmodel.Linear // Gradient-AllReduce — inter-node
	GEMM    perfmodel.Linear // per-GEMM compute

	// IIOContention is the fractional intra-node slowdown paid when the
	// schedule deliberately overlaps intra- with inter-node collectives
	// (kernel/fabric contention; see topology.Cluster.IIOContention).
	// Only the FSMoE system pays it — it is the only schedule that
	// co-executes the two.
	IIOContention float64
}

// InflateIntra returns a copy of the models with intra-node collective
// costs raised by the IIO contention factor. FSMoE plans and executes
// against these costs; all other systems run intra-node collectives alone
// and use the base models.
func (m Models) InflateIntra() Models {
	out := m
	out.AG = perfmodel.Linear{Alpha: m.AG.Alpha, Beta: m.AG.Beta * (1 + m.IIOContention)}
	out.RS = perfmodel.Linear{Alpha: m.RS.Alpha, Beta: m.RS.Beta * (1 + m.IIOContention)}
	return out
}

// ModelsFromCluster derives exact models from a testbed's ground-truth
// coefficients (what a perfect profiling run would recover).
func ModelsFromCluster(c *topology.Cluster) Models {
	flatAlpha := c.AlphaA2A + float64(c.Nodes-1)*c.FlatA2AAlphaPeer
	flatBeta := c.BetaA2A * c.FlatA2ABWPenalty * (1 + c.FlatA2ACongestion*float64(c.Nodes-1))
	return Models{
		A2A:     perfmodel.Linear{Alpha: c.AlphaA2A, Beta: c.BetaA2A},
		A2AFlat: perfmodel.Linear{Alpha: flatAlpha, Beta: flatBeta},
		AG:      perfmodel.Linear{Alpha: c.AlphaAG, Beta: c.BetaAG},
		RS:      perfmodel.Linear{Alpha: c.AlphaRS, Beta: c.BetaRS},
		AR:      perfmodel.Linear{Alpha: c.AlphaAR, Beta: c.BetaAR},
		GEMM:    perfmodel.Linear{Alpha: c.AlphaGEMM, Beta: c.BetaGEMM},

		IIOContention: c.IIOContention,
	}
}

// Volumes describes one generalized layer's work (§5.2's "MoE layer and
// other operations before the next MoE layer"), per GPU.
type Volumes struct {
	NA2A float64 // bytes moved by each AlltoAll (dispatch = combine)
	NAG  float64 // bytes received by the ESP-AllGather
	NRS  float64 // bytes of the ESP-ReduceScatter

	ExpMACs  float64 // forward expert MACs
	ExpGEMMs int     // GEMMs per expert forward (2 simple, 3 Mixtral); scales α_exp

	DenseFwd float64 // "Others" forward duration, ms (attention, MP comms, gate, order)
	DenseBwd float64 // "Others" backward duration, ms

	GradBytes float64 // gradient bytes this generalized layer contributes to Gradient-AllReduce
}

// Validate reports impossible volumes.
func (v Volumes) Validate() error {
	if v.NA2A < 0 || v.NAG < 0 || v.NRS < 0 || v.ExpMACs < 0 || v.GradBytes < 0 {
		return fmt.Errorf("core: negative volume in %+v", v)
	}
	if v.ExpGEMMs <= 0 {
		return fmt.Errorf("core: ExpGEMMs must be positive, got %d", v.ExpGEMMs)
	}
	return nil
}

// Phase selects forward or backward task durations (§4.4).
type Phase int

// Phases.
const (
	Forward Phase = iota
	Backward
)

func (p Phase) String() string {
	if p == Backward {
		return "backward"
	}
	return "forward"
}

// expertModel returns the per-chunk expert-computation model for the phase.
// The α of a single GEMM is paid once per constituent GEMM (§4.1); the
// backward pass computes gradients of both weights and inputs, doubling the
// work (§4.4: modelled as 2× the forward α and volume).
func (m Models) expertModel(v Volumes, phase Phase) (perfmodel.Linear, float64) {
	lin := perfmodel.Linear{
		Alpha: m.GEMM.Alpha * float64(v.ExpGEMMs),
		Beta:  m.GEMM.Beta,
	}
	n := v.ExpMACs
	if phase == Backward {
		lin.Alpha *= 2
		n *= 2
	}
	return lin, n
}

// TA2A returns t_a2a,r — the per-chunk AlltoAll duration at pipeline degree r.
func (m Models) TA2A(v Volumes, r float64) float64 { return m.A2A.ChunkTime(v.NA2A, r) }

// TAG returns t_ag,r.
func (m Models) TAG(v Volumes, r float64) float64 { return m.AG.ChunkTime(v.NAG, r) }

// TRS returns t_rs,r.
func (m Models) TRS(v Volumes, r float64) float64 { return m.RS.ChunkTime(v.NRS, r) }

// TExp returns t_exp,r for the given phase.
func (m Models) TExp(v Volumes, r float64, phase Phase) float64 {
	lin, n := m.expertModel(v, phase)
	return lin.ChunkTime(n, r)
}

// TAR returns the Gradient-AllReduce duration for n bytes.
func (m Models) TAR(n float64) float64 { return m.AR.Time(n) }

// ARInverse returns the byte budget that fits in a window of t ms.
func (m Models) ARInverse(t float64) float64 { return m.AR.Inverse(t) }
