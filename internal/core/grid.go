package core

import "math"

// GridResult is the outcome of the 2-D Algorithm-1 search over
// (group size × pipeline degree). G is the chosen EP-group size; the
// embedded DegreeResult carries the optimal degree and predicted MoE time
// for that group size.
type GridResult struct {
	G int // chosen hybrid group size (1 ≡ pure EP, ranks ≡ pure ESP)
	DegreeResult
}

// FindOptimalPipelineGrid extends Algorithm 1 to the hybrid EP×ESP
// strategy: the group size g changes the per-layer collective volumes
// (larger groups shrink the AlltoAll peer set but grow the in-group
// AllGather/ReduceScatter), so each candidate g induces its own Volumes
// via volsFor and its own 1-D degree optimum. The grid optimum is the
// (g, r) cell minimizing the closed-form t_moe, the first one in groups
// order on ties: both loops are exhaustive, over the few candidate group
// sizes and the integer degrees.
//
// groups lists the candidate group sizes (typically the divisors of the
// EP world size); volsFor maps a group size to that configuration's
// per-GPU volumes. Group sizes whose volumes fail Validate are skipped.
// An empty or fully-invalid candidate set falls back to g=1 with its
// 1-D result.
func (m Models) FindOptimalPipelineGrid(groups []int, volsFor func(g int) Volumes, tgar float64, phase Phase, rMax int) GridResult {
	best := GridResult{G: 0, DegreeResult: DegreeResult{R: 1, TMoE: math.Inf(1), Case: CaseUnknown}}
	for _, g := range groups {
		if g < 1 {
			continue
		}
		v := volsFor(g)
		if v.Validate() != nil {
			continue
		}
		dr := m.FindOptimalPipelineDegree(v, tgar, phase, rMax)
		if dr.TMoE < best.TMoE {
			best = GridResult{G: g, DegreeResult: dr}
		}
	}
	if best.G == 0 {
		v := volsFor(1)
		return GridResult{G: 1, DegreeResult: m.FindOptimalPipelineDegree(v, tgar, phase, rMax)}
	}
	return best
}
