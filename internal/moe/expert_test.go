package moe

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// lossOf is the scalar test loss <y, r> for gradient checking.
func lossOf(y, r *tensor.Tensor) float64 {
	return tensor.Sum(tensor.Mul(y, r))
}

// numGradInput estimates d loss/d x[i] by central differences, re-running
// forward.
func numGradInput(f func(x *tensor.Tensor) float64, x *tensor.Tensor, i int, eps float64) float64 {
	orig := x.Data()[i]
	x.Data()[i] = orig + eps
	up := f(x)
	x.Data()[i] = orig - eps
	down := f(x)
	x.Data()[i] = orig
	return (up - down) / (2 * eps)
}

// forwardOf runs exp's whole-block forward on x into a new output.
func forwardOf(exp Expert, x *tensor.Tensor) (*tensor.Tensor, *blockPass) {
	y := tensor.New(x.Shape()...)
	return y, forwardBlock(exp, x, y)
}

// checkExpertGradients holds the contract's whole-block backward —
// forwardBlock, then blockPass.backward adding into Param.G — to central
// differences of the forward, for the input and for every parameter.
func checkExpertGradients(t *testing.T, mk func(rng *xrand.RNG) Expert) {
	t.Helper()
	rng := xrand.New(42)
	exp := mk(rng)
	const n, m = 5, 6
	x := tensor.RandN(rng, 1, n, m)
	r := tensor.RandN(rng, 1, n, m)

	for _, p := range exp.Params() {
		p.G.Zero()
	}
	_, pass := forwardOf(exp, x)
	dx := tensor.New(n, m)
	pass.backward(r.Clone(), dx, nil)

	f := func(xx *tensor.Tensor) float64 {
		yy, _ := forwardOf(exp, xx)
		return lossOf(yy, r)
	}
	const eps = 1e-6
	for i := 0; i < x.Size(); i += 7 {
		num := numGradInput(f, x, i, eps)
		ana := dx.Data()[i]
		if math.Abs(num-ana) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("%s: input grad[%d]: numeric %v vs analytic %v", exp.Name(), i, num, ana)
		}
	}

	// Parameter gradients: perturb a few entries of each parameter.
	for _, p := range exp.Params() {
		stride := p.W.Size()/5 + 1
		for i := 0; i < p.W.Size(); i += stride {
			orig := p.W.Data()[i]
			p.W.Data()[i] = orig + eps
			yu, _ := forwardOf(exp, x)
			p.W.Data()[i] = orig - eps
			yd, _ := forwardOf(exp, x)
			p.W.Data()[i] = orig
			num := (lossOf(yu, r) - lossOf(yd, r)) / (2 * eps)
			ana := p.G.Data()[i]
			if math.Abs(num-ana) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("%s: %s grad[%d]: numeric %v vs analytic %v", exp.Name(), p.Name, i, num, ana)
			}
		}
	}
}

func TestGPTFFNGradients(t *testing.T) {
	checkExpertGradients(t, func(rng *xrand.RNG) Expert {
		e, err := NewGPTFFN(6, 9, rng)
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
}

func TestMixtralFFNGradients(t *testing.T) {
	checkExpertGradients(t, func(rng *xrand.RNG) Expert {
		e, err := NewMixtralFFN(6, 9, rng)
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
}

func TestExpertShapes(t *testing.T) {
	rng := xrand.New(1)
	for _, mk := range []func() (Expert, error){
		func() (Expert, error) { return NewGPTFFN(8, 16, rng) },
		func() (Expert, error) { return NewMixtralFFN(8, 16, rng) },
	} {
		e, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		y, _ := forwardOf(e, tensor.RandN(rng, 1, 3, 8))
		if y.Dim(0) != 3 || y.Dim(1) != 8 {
			t.Fatalf("%s: output shape %v", e.Name(), y.Shape())
		}
	}
}

func TestExpertMACsAndBytes(t *testing.T) {
	rng := xrand.New(2)
	g, _ := NewGPTFFN(4, 10, rng)
	if g.FwdMACs(3) != 2*3*4*10 {
		t.Fatalf("GPT MACs = %v", g.FwdMACs(3))
	}
	if b := paramBytes([]Expert{g}); b != 4*float64(2*4*10+10+4) {
		t.Fatalf("GPT bytes = %v", b)
	}
	m, _ := NewMixtralFFN(4, 10, rng)
	if m.FwdMACs(3) != 3*3*4*10 {
		t.Fatalf("Mixtral MACs = %v", m.FwdMACs(3))
	}
	if b := paramBytes([]Expert{m}); b != 4*float64(3*4*10) {
		t.Fatalf("Mixtral bytes = %v", b)
	}
}

func TestExpertConstructorErrors(t *testing.T) {
	rng := xrand.New(3)
	if _, err := NewGPTFFN(0, 4, rng); err == nil {
		t.Fatal("expected error for M=0")
	}
	if _, err := NewMixtralFFN(4, -1, rng); err == nil {
		t.Fatal("expected error for H<0")
	}
}
