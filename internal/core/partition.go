package core

import (
	"repro/internal/solve"
)

// LayerSpec is one generalized layer of the model being scheduled.
type LayerSpec struct {
	V Volumes
}

// GarPlan is the outcome of the adaptive gradient partitioning (§5):
// how many Gradient-AllReduce bytes each generalized layer hides, and the
// tail that remains exposed at the end of the backward pass.
type GarPlan struct {
	// MoEBytes[i] is the gradient volume overlapped inside layer i's MoE
	// pipeline; the schedule passes t_ar(MoEBytes[i]) to Algorithm 1 as
	// tgar (Step 1 fill plus the Step 2 assignment).
	MoEBytes []float64
	// DenseBytes[i] is the gradient volume overlapped with layer i's dense
	// ("Others") backward window.
	DenseBytes []float64
	// TailBytes is the remainder synchronized sequentially after backward.
	TailBytes float64
	// TotalBytes is the model's full gradient volume (invariant: the plan
	// conserves it).
	TotalBytes float64
}

// HiddenBytes returns the bytes the plan hides around layer i's backward:
// the MoE-pipeline window plus the dense-backward window. This is the
// per-layer budget the executable gradsync.Syncer materializes as
// AllReduce slices in that layer's backward stream plan.
func (g *GarPlan) HiddenBytes(i int) float64 { return g.MoEBytes[i] + g.DenseBytes[i] }

// Overlapped returns the total bytes hidden by the plan.
func (g *GarPlan) Overlapped() float64 {
	s := 0.0
	for i := range g.MoEBytes {
		s += g.MoEBytes[i] + g.DenseBytes[i]
	}
	return s
}

// PartitionGradients runs the two-step partitioning of §5 over the model's
// layers (index 0 = first layer; backward visits them in reverse).
//
// Step 1 (§5.2): walk layers in backward-execution order; the gradients
// produced by already-finished layers form a pending pool that greedily
// fills each layer's overlappable windows — the MoE pipeline slack
// t_olp_moe (at the tgar=0 optimal degree) and the dense backward block.
//
// Step 2 (§5.3): the pool remaining after Step 1 is assigned to the MoE
// layers as extra tgar budget by differential evolution, minimizing
// Σ_i f_moe^i(t_ar(x_i)) + t_ar(tail) exactly as Eq. 5 formulates (the
// extra budget stretches a layer per its case objective, which can still
// beat paying a fully exposed tail).
func (m Models) PartitionGradients(layers []LayerSpec, rMax int) *GarPlan {
	return m.partition(layers, rMax, m.TOlpMoE, true)
}

// PartitionGradientsNoIIO is the partitioning used by the FSMoE-No-IIO
// ablation: the MoE window formula accounts for intra-node collectives
// sharing the inter-node stream, and the Step 2 stretch assignment is
// disabled (its case objectives assume the three-stream schedule). What
// Step 1 cannot hide joins the last dense slice instead of a separate
// tail, which would only pay a second collective startup.
func (m Models) PartitionGradientsNoIIO(layers []LayerSpec, rMax int) *GarPlan {
	return m.partition(layers, rMax, m.TOlpMoENoIIO, false)
}

func (m Models) partition(layers []LayerSpec, rMax int, window func(Volumes, Phase, float64) float64, step2 bool) *GarPlan {
	n := len(layers)
	plan := &GarPlan{
		MoEBytes:   make([]float64, n),
		DenseBytes: make([]float64, n),
	}
	for _, l := range layers {
		plan.TotalBytes += l.V.GradBytes
	}
	if plan.TotalBytes == 0 {
		return plan
	}

	// Step 1: greedy fill in backward order (layer n-1 first). Gradients
	// become available progressively: earlier-finished layers' gradients
	// can fill layer i's MoE window, and layer i's own (expert-dominated)
	// gradients are produced by its expert backward, in time for its own
	// dense window.
	pending := 0.0
	for i := n - 1; i >= 0; i-- {
		v := layers[i].V
		if pending > 0 {
			deg := m.FindOptimalPipelineDegree(v, 0, Backward, rMax)
			moeWindow := window(v, Backward, float64(deg.R))
			fit := m.ARInverse(min2(m.TAR(pending), moeWindow))
			if fit > pending {
				fit = pending
			}
			plan.MoEBytes[i] = fit
			pending -= fit
		}
		pending += v.GradBytes
		if pending > 0 && v.DenseBwd > 0 {
			fit := m.ARInverse(min2(m.TAR(pending), v.DenseBwd))
			if fit > pending {
				fit = pending
			}
			plan.DenseBytes[i] = fit
			pending -= fit
		}
	}
	if !step2 && pending > 0 && plan.DenseBytes[0] > 0 {
		// Without Step 2 the remainder is exposed either way. Layer 0's
		// dense slice is the last one backward issues and a separate tail
		// would queue behind it on the same stream, so riding the slice
		// moves the same bytes one collective startup sooner.
		plan.DenseBytes[0] += pending
		pending = 0
	}
	remaining := pending
	if remaining <= 0 || !step2 {
		plan.TailBytes = remaining
		if plan.TailBytes < 0 {
			plan.TailBytes = 0
		}
		return plan
	}

	// Step 2: distribute the remainder as extra MoE tgar budget via
	// differential evolution (Eq. 5). Variables are per-layer extra bytes;
	// any unassigned remainder becomes the tail.
	if n > 0 {
		obj := func(x []float64) float64 {
			used := 0.0
			total := 0.0
			for i := range x {
				xi := x[i]
				if used+xi > remaining {
					xi = remaining - used
					if xi < 0 {
						xi = 0
					}
				}
				used += xi
				tg := m.TAR(plan.MoEBytes[i] + xi)
				deg := m.FindOptimalPipelineDegree(layers[i].V, tg, Backward, rMax)
				total += deg.TMoE
			}
			tail := remaining - used
			if tail > 0 {
				total += m.TAR(tail)
			}
			return total
		}
		bounds := make([][2]float64, n)
		for i := range bounds {
			bounds[i] = [2]float64{0, remaining}
		}
		even := make([]float64, n)
		for i := range even {
			even[i] = remaining / float64(n)
		}
		best, _ := solve.DifferentialEvolution(obj, bounds, solve.DEOptions{
			Seed: 7, Gens: 60, PopSize: minInt(10*n, 60), TolStall: 12, InitCenter: even,
		})
		used := 0.0
		for i := range best {
			xi := best[i]
			if used+xi > remaining {
				xi = remaining - used
				if xi < 0 {
					xi = 0
				}
			}
			plan.MoEBytes[i] += xi
			used += xi
		}
		remaining -= used
	}
	plan.TailBytes = remaining
	return plan
}

// FixedChunkGarPlan is the Lina baseline (§6.4): each layer's gradients
// are synchronized as fixed-size chunks (30 MB in the paper) launched as
// soon as the layer's backward produces them, regardless of how much slack
// the schedule actually has at that point. Chunks that exceed the local
// dense window block the next layer's AlltoAll on the shared inter-node
// stream — the "hit or miss" behaviour §6.4 describes — and every chunk
// pays a collective startup α that FSMoE's adaptive slicing avoids.
func (m Models) FixedChunkGarPlan(layers []LayerSpec, chunkBytes float64) *GarPlan {
	n := len(layers)
	plan := &GarPlan{
		MoEBytes:   make([]float64, n),
		DenseBytes: make([]float64, n),
	}
	for i, l := range layers {
		plan.TotalBytes += l.V.GradBytes
		plan.DenseBytes[i] = l.V.GradBytes
	}
	if chunkBytes <= 0 {
		// Degenerate chunking: nothing can launch early; everything
		// synchronizes at the end.
		for i := range plan.DenseBytes {
			plan.DenseBytes[i] = 0
		}
		plan.TailBytes = plan.TotalBytes
	}
	return plan
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
