package moe

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// newLearningLayer builds an M=8, E=4, top-2 layer of GPT FFN experts
// under the named gate.
func newLearningLayer(t *testing.T, rng *xrand.RNG, gateKind string) *MOELayer {
	t.Helper()
	const m, e = 8, 4
	cfg := GateConfig{Experts: e, TopK: 2, Factor: 0}
	var gate Gate
	var err error
	switch gateKind {
	case "sigmoid":
		gate, err = NewSigmoidGate(cfg, m, rng)
	case "ec":
		gate, err = NewECGate(cfg, m, rng)
	case "softmoe":
		gate, err = NewSoftMoEGate(cfg, m, 2, rng)
	case "xmoe":
		gate, err = NewXMoEGate(cfg, m, 4, 0.3, rng)
	default:
		gate, err = NewGShardGate(cfg, m, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	experts := make([]Expert, e)
	for i := range experts {
		if experts[i], err = NewGPTFFN(m, 16, rng); err != nil {
			t.Fatal(err)
		}
	}
	layer, err := NewMOELayer(LayerConfig{M: m, Gate: gate, Order: TutelOrder{}, Experts: experts})
	if err != nil {
		t.Fatal(err)
	}
	return layer
}

// fitAdam runs steps full-batch Adam steps (β1 0.9, β2 0.999, ε 1e-8, bias
// corrected) of layer on the loss ½·mean((y−target)²) and returns the loss
// of every step.
func fitAdam(t *testing.T, layer *MOELayer, x, target *tensor.Tensor, lr float64, steps int) []float64 {
	t.Helper()
	beta1, beta2, eps := 0.9, 0.999, 1e-8 // variables: 1-beta1 rounds in float64
	m, v := map[*Param][]float64{}, map[*Param][]float64{}
	var losses []float64
	for s := 1; s <= steps; s++ {
		layer.ZeroGrad()
		y, cache, err := layer.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		diff := tensor.Sub(y, target)
		n := float64(diff.Size())
		loss := 0.0
		for _, d := range diff.Data() {
			loss += d * d
		}
		losses = append(losses, loss/(2*n))
		if _, err := layer.Backward(cache, tensor.Scale(diff, 1/n)); err != nil {
			t.Fatal(err)
		}
		c1 := 1 - math.Pow(beta1, float64(s))
		c2 := 1 - math.Pow(beta2, float64(s))
		for _, p := range layer.Params() {
			w, g := p.W.Data(), p.G.Data()
			if m[p] == nil {
				m[p], v[p] = make([]float64, len(w)), make([]float64, len(w))
			}
			pm, pv := m[p], v[p]
			for i := range w {
				pm[i] = beta1*pm[i] + (1-beta1)*g[i]
				pv[i] = beta2*pv[i] + (1-beta2)*g[i]*g[i]
				w[i] -= lr * (pm[i] / c1) / (math.Sqrt(pv[i]/c2) + eps)
			}
		}
	}
	return losses
}

// TestMoELayerLearns: under every gate, Adam on the layer's own gradients
// must cut the MSE of a fixed regression task below 0.7× its first value
// without diverging — the functional check that the backward passes and
// routing compose into a gradient an optimizer can follow.
func TestMoELayerLearns(t *testing.T) {
	for _, gate := range []string{"gshard", "sigmoid", "ec", "softmoe", "xmoe"} {
		t.Run(gate, func(t *testing.T) {
			layer := newLearningLayer(t, xrand.New(42), gate)
			x := tensor.RandN(xrand.New(1), 1, 32, 8)
			target := tensor.RandN(xrand.New(2), 0.5, 32, 8)
			losses := fitAdam(t, layer, x, target, 5e-3, 60)
			first, last := losses[0], losses[len(losses)-1]
			if !(last < first*0.7) {
				t.Fatalf("loss did not drop: %.5f -> %.5f", first, last)
			}
			for _, l := range losses {
				if math.IsNaN(l) || math.IsInf(l, 0) {
					t.Fatal("loss diverged")
				}
			}
		})
	}
}
