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
	AddRow(a.data, b.data)
}

// AddRow adds src[j] into dst[j] for every j of src — eight lanes at a time
// where the CPU has AVX-512 (row_amd64.s), with the scalar loop's bits. dst
// must not overlap src.
func AddRow(dst, src []float64) {
	dst = dst[:len(src)]
	v := 0
	if use512 {
		if v = len(src) &^ 7; v > 0 {
			addRow512(&dst[0], &src[0], v)
		}
	}
	for j := v; j < len(src); j++ {
		dst[j] += src[j]
	}
}

// AddScaledRow adds a·src[j] into dst[j] for every j of src, the product
// rounded before the sum, with AddRow's vector form. dst must not overlap
// src. With a = −lr it is the SGD step w − lr·g, bit for bit: (−lr)·g
// rounds to −(lr·g), and IEEE 754 defines x − y as x + (−y).
func AddScaledRow(dst, src []float64, a float64) {
	dst = dst[:len(src)]
	v := 0
	if use512 {
		if v = len(src) &^ 7; v > 0 {
			addScaledRow512(&dst[0], &src[0], a, v)
		}
	}
	for j := v; j < len(src); j++ {
		dst[j] += float64(a * src[j])
	}
}

// ScaleRow writes a·src[j] into dst[j] for every j of src, one rounded
// product each, with AddRow's vector form. dst must not overlap src.
func ScaleRow(dst, src []float64, a float64) {
	dst = dst[:len(src)]
	v := 0
	if use512 {
		if v = len(src) &^ 7; v > 0 {
			scaleRow512(&dst[0], &src[0], a, v)
		}
	}
	for j := v; j < len(src); j++ {
		dst[j] = a * src[j]
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

// Sigmoid returns 1/(1+e^-x) elementwise.
func Sigmoid(a *Tensor) *Tensor { return Apply(a, sigmoid) }
