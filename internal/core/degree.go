package core

import "math"

// ScheduleCase identifies which of the four Fig. 4 regimes a pipeline
// degree falls into.
type ScheduleCase int

// Cases of §4.2.
const (
	CaseUnknown ScheduleCase = iota
	Case1                    // inter-node comm (AlltoAll + Gradient-AllReduce) dominates
	Case2                    // expert computation dominates
	Case3                    // AlltoAll dominates, Gradient-AllReduce negligible
	Case4                    // intra-node comm (AllGather/ReduceScatter) dominates
)

func (c ScheduleCase) String() string {
	switch c {
	case Case1:
		return "case1-internode"
	case Case2:
		return "case2-compute"
	case Case3:
		return "case3-alltoall"
	case Case4:
		return "case4-intranode"
	default:
		return "case-unknown"
	}
}

// predicates evaluates Q1–Q7 of §4.2 at degree r.
type predicates struct {
	q1, q2, q3, q4, q5, q6, q7 bool
}

func (m Models) preds(v Volumes, tgar float64, phase Phase, r float64) predicates {
	ta2a := m.TA2A(v, r)
	tag := m.TAG(v, r)
	trs := m.TRS(v, r)
	texp := m.TExp(v, r, phase)
	var p predicates
	p.q1 = ta2a > tag
	p.q2 = r*texp > 2*(r-1)*ta2a
	p.q3 = r*texp > (r-1)*(tag+trs)
	p.q4 = tgar > tag+trs
	p.q5 = tgar > r*texp-2*(r-1)*ta2a+tag+trs
	p.q6 = tgar > r*tag+r*trs-2*(r-1)*ta2a
	p.q7 = tgar > tag+trs+r*texp-2*(r-1)*ta2a
	return p
}

// Classify maps a degree to its schedule case. The four cases are
// exhaustive and mutually exclusive (§4.2).
func (m Models) Classify(v Volumes, tgar float64, phase Phase, r float64) ScheduleCase {
	p := m.preds(v, tgar, phase, r)
	switch {
	case (p.q1 && !p.q2 && p.q4) || (p.q1 && p.q2 && p.q5) ||
		(!p.q1 && !p.q3 && p.q6) || (!p.q1 && p.q3 && p.q7):
		return Case1
	case (p.q1 && p.q2 && !p.q5) || (!p.q1 && p.q3 && !p.q7):
		return Case2
	case p.q1 && !p.q2 && !p.q4:
		return Case3
	case !p.q1 && !p.q3 && !p.q6:
		return Case4
	}
	return CaseUnknown
}

// CaseTime evaluates the closed-form t_moe of the given case at degree r
// (Eq. 2 and the t_moe_2..4 formulas of §4.2).
func (m Models) CaseTime(c ScheduleCase, v Volumes, tgar float64, phase Phase, r float64) float64 {
	ta2a := m.TA2A(v, r)
	tag := m.TAG(v, r)
	trs := m.TRS(v, r)
	texp := m.TExp(v, r, phase)
	switch c {
	case Case1:
		return 2*r*ta2a + tgar
	case Case2:
		return 2*ta2a + tag + trs + r*texp
	case Case3:
		return 2*r*ta2a + tag + trs
	case Case4:
		return 2*ta2a + r*tag + r*trs
	default:
		return math.Inf(1)
	}
}

// PipelineTime evaluates the piecewise closed-form t_moe(r): the case the
// degree falls into decides the formula.
func (m Models) PipelineTime(v Volumes, tgar float64, phase Phase, r float64) float64 {
	return m.CaseTime(m.Classify(v, tgar, phase, r), v, tgar, phase, r)
}

// MaxPipelineDegree is the default pipeline-degree cap: the one Algorithm 1
// and BuildOptions fall back to, and the one the §5 sync and the World
// planner use.
const MaxPipelineDegree = 16

// DegreeResult is the outcome of the pipeline-degree optimization.
type DegreeResult struct {
	R    int          // chosen pipeline degree
	TMoE float64      // predicted MoE-block time at R (closed form)
	Case ScheduleCase // regime at R
}

// FindOptimalPipelineDegree is Algorithm 1: the integer degree in
// [1, rMax] minimizing the piecewise closed form t_moe(r) (PipelineTime),
// the smallest one on ties, found by evaluating every candidate. rMax < 1
// means MaxPipelineDegree. tgar is 0 in the forward phase and the assigned
// Gradient-AllReduce budget in the backward phase (§4.4, §5).
func (m Models) FindOptimalPipelineDegree(v Volumes, tgar float64, phase Phase, rMax int) DegreeResult {
	if rMax < 1 {
		rMax = MaxPipelineDegree
	}
	best := DegreeResult{R: 1, TMoE: math.Inf(1)}
	for r := 1; r <= rMax; r++ {
		if t := m.PipelineTime(v, tgar, phase, float64(r)); t < best.TMoE {
			best.R, best.TMoE = r, t
		}
	}
	best.Case = m.Classify(v, tgar, phase, float64(best.R))
	return best
}

// TOlpMoE is the overlappable time inside the MoE pipeline when tgar=0
// (§5.2): the slack on the inter-node stream that gradient slices can fill
// without extending the schedule.
func (m Models) TOlpMoE(v Volumes, phase Phase, r float64) float64 {
	ta2a := m.TA2A(v, r)
	tag := m.TAG(v, r)
	trs := m.TRS(v, r)
	texp := m.TExp(v, r, phase)
	switch m.Classify(v, 0, phase, r) {
	case Case2:
		return r*texp + tag + trs - 2*(r-1)*ta2a
	case Case3:
		return tag + trs
	case Case4:
		return r*tag + r*trs - 2*(r-1)*ta2a
	default:
		// With tgar=0, Case 1 requires one of Q4..Q7 with tgar > (non-
		// negative term); only possible when the term is negative, meaning
		// the stream is saturated: no overlappable slack.
		return 0
	}
}

// TOlpMoENoIIO is the overlappable slack when intra- and inter-node
// collectives share one communication stream (the FSMoE-No-IIO ablation):
// the stream's idle time in the compute-bound regime, r·t_exp minus the
// pipelined communication it must interleave.
func (m Models) TOlpMoENoIIO(v Volumes, phase Phase, r float64) float64 {
	ta2a := m.TA2A(v, r)
	tag := m.TAG(v, r)
	trs := m.TRS(v, r)
	texp := m.TExp(v, r, phase)
	slack := r*texp - 2*(r-1)*ta2a - (r-1)*(tag+trs)
	if slack < 0 {
		return 0
	}
	return slack
}
