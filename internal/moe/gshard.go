package moe

import (
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// GShardGate is the noisy top-k gate of GShard (§2.1):
//
//	H(x)_i = (x·W_g)_i + N(0,1)·Softplus((x·W_noise)_i)   (training only)
//	G(x)   = Softmax(KeepTopK(H(x), k))
//
// Combine weights are the masked-softmax values over the selected experts.
// The auxiliary load-balancing loss is the standard GShard/Switch form
// E·Σ_e f_e·p_e, with f_e the fraction of tokens whose first choice is e
// and p_e the mean (full) softmax probability of e.
type GShardGate struct {
	cfg    GateConfig
	m      int
	wg     *Param
	wnoise *Param
	rng    *xrand.RNG

	// fixedNoise, when non-nil, replaces sampling; tests use it to make
	// the noisy path differentiable-checkable.
	fixedNoise *tensor.Tensor

	idle *choices // routing scratch between a Backward and the next Route
}

type gshardCache struct {
	logits *tensor.Tensor // H(x), (N, E)
	noise  *tensor.Tensor // sampled N(0,1), nil in eval mode
	spPre  *tensor.Tensor // x·W_noise, nil in eval mode
	sel    *choices       // selected experts and masked-softmax weights per token
	probs  *tensor.Tensor // full softmax over logits, for the aux loss
	firstC []int          // first-choice counts per expert
}

// NewGShardGate constructs the gate for embedding size m.
func NewGShardGate(cfg GateConfig, m int, rng *xrand.RNG) (*GShardGate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &GShardGate{
		cfg:    cfg,
		m:      m,
		wg:     newParam("gshard.wg", tensor.Xavier(rng, m, cfg.Experts)),
		wnoise: newParam("gshard.wnoise", tensor.Xavier(rng, m, cfg.Experts)),
		rng:    rng.Split(),
	}, nil
}

// Name implements Gate.
func (g *GShardGate) Name() string { return "gshard" }

// Params implements Gate.
func (g *GShardGate) Params() []*Param { return []*Param{g.wg, g.wnoise} }

// SetFixedNoise pins the noise matrix for the next Route calls; tests use
// this to verify the noisy-path gradients numerically.
func (g *GShardGate) SetFixedNoise(n *tensor.Tensor) { g.fixedNoise = n }

// RNGState and SetRNGState implement RNGCarrier: the private noise
// generator is the gate's only mutable non-parameter state, so
// checkpointing it makes a restored training run replay the identical
// noisy-gating stream.
func (g *GShardGate) RNGState() (state, gamma uint64) { return g.rng.State() }
func (g *GShardGate) SetRNGState(state, gamma uint64) { g.rng.SetState(state, gamma) }

// Route implements Gate.
func (g *GShardGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	if err := checkGateInput(x, g.m); err != nil {
		return nil, nil, err
	}
	n := x.Dim(0)
	e := g.cfg.Experts
	logits := tensor.MatMul(x, g.wg.W)
	cache := &gshardCache{}
	if train {
		spPre := tensor.MatMul(x, g.wnoise.W)
		sp := tensor.Softplus(spPre)
		var noise *tensor.Tensor
		if g.fixedNoise != nil {
			noise = g.fixedNoise
		} else {
			noise = tensor.RandN(g.rng, 1, n, e)
		}
		logits = tensor.Add(logits, tensor.Mul(noise, sp))
		cache.noise = noise
		cache.spPre = spPre
	}
	cache.logits = logits

	probs := tensor.SoftmaxRows(logits) // full softmax for the aux loss
	cache.probs = probs
	// Combine weights: the masked softmax over the selected logits.
	plan, sel := routeTopK(&g.idle, g.cfg, logits, tensor.SoftmaxInPlace)
	cache.sel = sel
	firstChoice := make([]int, e)
	for t := 0; t < n; t++ {
		firstChoice[sel.idx[t*sel.k]]++
	}
	// Load balancing loss: E * sum_e f_e * p_e.
	aux := 0.0
	for ei := 0; ei < e; ei++ {
		f := float64(firstChoice[ei]) / float64(n)
		p := 0.0
		for t := 0; t < n; t++ {
			p += probs.Row(t)[ei]
		}
		p /= float64(n)
		aux += f * p
	}
	plan.AuxLoss = aux * float64(e)
	cache.firstC = firstChoice
	return plan, &RouteCache{X: x, Plan: plan, extra: cache}, nil
}

// AuxBackward accumulates scale · ∂AuxLoss/∂θ into the gate parameters and
// returns the corresponding input gradient. The loss is E·Σ_e f_e·p̄_e
// (§2.1's load-balancing term): f_e, the first-choice fraction, is
// piecewise constant, so the gradient flows through the mean softmax
// probabilities p̄_e exactly as in GShard/Switch training. Call it after
// Route (typically alongside the layer's Backward) with the coefficient
// the training loss puts on the auxiliary term.
func (g *GShardGate) AuxBackward(rc *RouteCache, scale float64) *tensor.Tensor {
	cache := rc.extra.(*gshardCache)
	x := rc.X
	n, e := x.Dim(0), g.cfg.Experts
	if scale == 0 || n == 0 {
		return tensor.New(n, g.m)
	}
	// AuxLoss = (E/n²)·Σ_e c_e·Σ_t p_te with c_e the first-choice count.
	// dL/dp_te = scale·E·c_e/n²; back through each row's softmax.
	dLogits := tensor.New(n, e)
	coeff := scale * float64(e) / (float64(n) * float64(n))
	dp := make([]float64, e)
	for ei := 0; ei < e; ei++ {
		dp[ei] = coeff * float64(cache.firstC[ei])
	}
	for t := 0; t < n; t++ {
		dl := dLogits.Row(t)
		copy(dl, dp)
		maskedSoftmaxBackward(cache.probs.Row(t), dl)
	}
	tensor.AddInPlace(g.wg.G, tensor.MatMulT1(x, dLogits))
	dx := tensor.MatMulT2(dLogits, g.wg.W)
	if cache.noise != nil {
		dsp := tensor.Mul(dLogits, cache.noise)
		dpre := tensor.Mul(dsp, tensor.Sigmoid(cache.spPre))
		tensor.AddInPlace(g.wnoise.G, tensor.MatMulT1(x, dpre))
		tensor.AddInPlace(dx, tensor.MatMulT2(dpre, g.wnoise.W))
	}
	return dx
}

// Backward implements Gate. Dropped assignments contribute no gradient
// (their combine weight never reached the output).
func (g *GShardGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	cache := rc.extra.(*gshardCache)
	x := rc.X
	n, e := x.Dim(0), g.cfg.Experts
	sel, k := cache.sel, g.cfg.TopK
	// Collect dWeight per (token, selected expert) from the slot grads.
	dW := sel.weightGrads(rc.Plan, grad.SlotWeight)
	dLogits := tensor.Get(n, e) // transient; released below
	for t := 0; t < n; t++ {
		dl := dW[t*k : (t+1)*k]
		maskedSoftmaxBackward(sel.w[t*k:(t+1)*k], dl)
		row := dLogits.Row(t)
		for j, idx := range sel.idx[t*k : (t+1)*k] {
			row[idx] = dl[j]
		}
	}
	g.idle = sel
	// dWg += xᵀ dLogits ; dx = dLogits Wgᵀ.
	tensor.MatMulT1AddInto(g.wg.G, x, dLogits)
	tensor.MatMulT2Into(dx, dLogits, g.wg.W)
	if cache.noise != nil {
		// Noise path: logits += noise * softplus(x·W_noise).
		dpre := tensor.GetUninit(n, e)
		tensor.MulInto(dpre, dLogits, cache.noise)
		spd := cache.spPre.Data()
		dd := dpre.Data()
		for i := range dd {
			dd[i] *= tensor.SigmoidAt(spd[i]) // softplus' = sigmoid
		}
		tensor.MatMulT1AddInto(g.wnoise.G, x, dpre)
		dxn := tensor.GetUninit(n, g.m)
		tensor.MatMulT2Into(dxn, dpre, g.wnoise.W)
		tensor.AddInPlace(dx, dxn)
		tensor.Put(dxn)
		tensor.Put(dpre)
	}
	tensor.Put(dLogits)
}
