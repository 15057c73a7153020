package tensor

import "fmt"

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSameShape("Sub", a, b)
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSameShape("Mul", a, b)
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] *= v
	}
	return out
}

// Scale returns a * s.
func Scale(a *Tensor, s float64) *Tensor {
	out := a.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Tensor) {
	checkSameShape("AddInPlace", a, b)
	for i, v := range b.data {
		a.data[i] += v
	}
}

// AddScaledInPlace accumulates s*b into a.
func AddScaledInPlace(a *Tensor, s float64, b *Tensor) {
	checkSameShape("AddScaledInPlace", a, b)
	for i, v := range b.data {
		a.data[i] += s * v
	}
}

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(a *Tensor, s float64) {
	for i := range a.data {
		a.data[i] *= s
	}
}

// MulInto stores a * b (Hadamard) into dst; all three must share a shape.
func MulInto(dst, a, b *Tensor) {
	checkSameShape("MulInto", a, b)
	checkSameShape("MulInto", dst, a)
	for i, v := range a.data {
		dst.data[i] = v * b.data[i]
	}
}

// AddRowVectorInPlace adds a length-n vector v to every row of a 2-D (m,n)
// tensor in place — the allocation-free bias add of the pooled FFN path.
func AddRowVectorInPlace(a *Tensor, v *Tensor) {
	if a.Rank() != 2 || v.Rank() != 1 || a.shape[1] != v.shape[0] {
		panic("tensor: AddRowVectorInPlace shape mismatch")
	}
	n := a.shape[1]
	for i := 0; i < a.shape[0]; i++ {
		row := a.data[i*n : (i+1)*n]
		for j := range row {
			row[j] += v.data[j]
		}
	}
}

// AddRowVector adds a length-n vector v to every row of a 2-D (m,n) tensor,
// as a bias term does.
func AddRowVector(a *Tensor, v *Tensor) *Tensor {
	if a.Rank() != 2 || v.Rank() != 1 || a.shape[1] != v.shape[0] {
		panic("tensor: AddRowVector shape mismatch")
	}
	out := a.Clone()
	n := a.shape[1]
	for i := 0; i < a.shape[0]; i++ {
		row := out.data[i*n : (i+1)*n]
		for j := range row {
			row[j] += v.data[j]
		}
	}
	return out
}

func checkSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Apply returns f applied elementwise.
func Apply(a *Tensor, f func(float64) float64) *Tensor {
	out := a.Clone()
	for i, v := range out.data {
		out.data[i] = f(v)
	}
	return out
}

// ApplyInto stores f applied elementwise to a into dst (same shape; dst may
// be a). Callers pair it with GetUninit for allocation-free activations.
func ApplyInto(dst, a *Tensor, f func(float64) float64) {
	checkSameShape("ApplyInto", dst, a)
	for i, v := range a.data {
		dst.data[i] = f(v)
	}
}

// GeLUInto stores GeLU(a) into dst.
func GeLUInto(dst, a *Tensor) { ApplyInto(dst, a, gelu) }

// SiLUInto stores SiLU(a) into dst.
func SiLUInto(dst, a *Tensor) { ApplyInto(dst, a, silu) }

// Sum returns the sum of all elements.
func Sum(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements, or 0 for empty tensors.
func Mean(a *Tensor) float64 {
	if len(a.data) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a.data))
}

// Sigmoid returns 1/(1+e^-x) elementwise.
func Sigmoid(a *Tensor) *Tensor { return Apply(a, sigmoid) }

// SigmoidGrad returns the derivative of sigmoid given its output y.
func SigmoidGrad(y float64) float64 { return y * (1 - y) }

// Softplus returns log(1+e^x) elementwise, computed stably.
func Softplus(a *Tensor) *Tensor { return Apply(a, softplus) }

// GeLU applies the Gaussian error linear unit (tanh approximation, as used
// by GPT-2) elementwise.
func GeLU(a *Tensor) *Tensor { return Apply(a, gelu) }

// SiLU applies x*sigmoid(x) (the activation used by Mixtral) elementwise.
func SiLU(a *Tensor) *Tensor { return Apply(a, silu) }

// ReLU applies max(0,x) elementwise.
func ReLU(a *Tensor) *Tensor {
	return Apply(a, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	})
}

// Tanh applies tanh elementwise (activation.go's tanh).
func Tanh(a *Tensor) *Tensor { return Apply(a, tanh) }

// Exp applies e^x elementwise (activation.go's exp).
func Exp(a *Tensor) *Tensor { return Apply(a, exp) }
