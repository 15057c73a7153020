package core

import "math"

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
// per-layer budget the executable gradsync.Plan cuts into AllReduce slices
// for that layer's backward stream plan.
func (g *GarPlan) HiddenBytes(i int) float64 { return g.MoEBytes[i] + g.DenseBytes[i] }

// PartitionGradients runs the two-step partitioning of §5 over the model's
// layers (index 0 = first layer; backward visits them in reverse).
//
// Step 1 (§5.2): walk layers in backward-execution order; the gradients
// produced by already-finished layers form a pending pool that greedily
// fills each layer's overlappable windows — the MoE pipeline slack
// t_olp_moe (at the tgar=0 optimal degree) and the dense backward block.
//
// Step 2 (§5.3): the pool remaining after Step 1 is assigned to the MoE
// layers as extra tgar budget, minimizing Σ_i f_moe^i(t_ar(x_i)) +
// t_ar(tail) as Eq. 5 formulates (the extra budget stretches a layer per
// its case objective, which can still beat paying a fully exposed tail).
// The budgets are multiples of 1/step2Quanta of the pool, and the minimum
// over that grid is exact (allocateQuanta).
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

	// Step 2: price every layer at every grid point of extra budget, then
	// split the pool's quanta between the layers and the tail exactly.
	q := remaining / step2Quanta
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, step2Quanta+1)
		for k := range cost[i] {
			tg := m.TAR(plan.MoEBytes[i] + float64(k)*q)
			cost[i][k] = m.FindOptimalPipelineDegree(layers[i].V, tg, Backward, rMax).TMoE
		}
	}
	tail := make([]float64, step2Quanta+1)
	for t := 1; t <= step2Quanta; t++ {
		tail[t] = m.TAR(float64(t) * q)
	}
	ks := allocateQuanta(cost, tail)
	used := 0
	for i, k := range ks {
		plan.MoEBytes[i] += float64(k) * q
		used += k
	}
	plan.TailBytes = float64(step2Quanta-used) * q
	return plan
}

// step2Quanta is the number of equal parts §5 Step 2 splits the remaining
// gradient pool into.
const step2Quanta = 64

// allocateQuanta minimizes Σ_i cost[i][k_i] + tail[K − Σ_i k_i] over
// integers k_i ≥ 0 with Σ_i k_i ≤ K, where every cost row and tail have
// K + 1 entries, and returns the k_i. It is a dynamic program over the
// quanta used by layers 0..i: O(n·K²) additions, then a backtrack. Ties go
// to the larger tail, then to fewer quanta on the higher-indexed layer.
func allocateQuanta(cost [][]float64, tail []float64) []int {
	K := len(tail) - 1
	// best[j] is the least cost of the layers so far using j quanta;
	// take[i][j] is what layer i took in that optimum.
	best := make([]float64, K+1)
	for j := 1; j <= K; j++ {
		best[j] = math.Inf(1)
	}
	next := make([]float64, K+1)
	take := make([][]int, len(cost))
	for i, c := range cost {
		take[i] = make([]int, K+1)
		for j := range next {
			next[j] = math.Inf(1)
			for k := 0; k <= j; k++ {
				if t := best[j-k] + c[k]; t < next[j] {
					next[j], take[i][j] = t, k
				}
			}
		}
		best, next = next, best
	}
	j, obj := 0, math.Inf(1)
	for u := range best {
		if t := best[u] + tail[K-u]; t < obj {
			j, obj = u, t
		}
	}
	ks := make([]int, len(cost))
	for i := len(cost) - 1; i >= 0; i-- {
		ks[i] = take[i][j]
		j -= ks[i]
	}
	return ks
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
