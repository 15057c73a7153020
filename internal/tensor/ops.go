package tensor

import "fmt"

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSameShape("Mul", a, b)
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] *= v
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

// AddScaledRow adds a·src[j] into dst[j] for every j of src: AddScaledRowTo
// in place. dst must not overlap src. With a = −lr it is the SGD step
// w − lr·g, bit for bit: (−lr)·g rounds to −(lr·g), and IEEE 754 defines
// x − y as x + (−y).
func AddScaledRow(dst, src []float64, a float64) { AddScaledRowTo(dst, dst, src, a) }

// AddScaledRowTo writes base[j] + a·src[j] into dst[j] for every j of src,
// the product rounded before the sum, with AddRow's vector form. dst is
// base itself or overlaps neither base nor src.
func AddScaledRowTo(dst, base, src []float64, a float64) {
	dst, base = dst[:len(src)], base[:len(src)]
	v := 0
	if use512 {
		if v = len(src) &^ 7; v > 0 {
			addScaledRowTo512(&dst[0], &base[0], &src[0], a, v)
		}
	}
	for j := v; j < len(src); j++ {
		dst[j] = base[j] + float64(a*src[j])
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

// MulInto stores a * b (Hadamard) into dst; all three must share a shape.
func MulInto(dst, a, b *Tensor) {
	checkSameShape("MulInto", a, b)
	checkSameShape("MulInto", dst, a)
	for i, v := range a.data {
		dst.data[i] = v * b.data[i]
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

// Sigmoid returns 1/(1+e^-x) elementwise.
func Sigmoid(a *Tensor) *Tensor { return Apply(a, sigmoid) }
