package tensor

import "math"

// The elementary functions of the training step — e^x, tanh and the logistic
// σ — and the activations built on them. Each is defined here from +, −, ×,
// ÷ and exact scaling by powers of two, never through math.Exp or
// math.Tanh: on amd64 math.Exp takes a fused-multiply-add path when the CPU
// has FMA and an unfused one when it has not, so its bits — and every
// parameter downstream of a softmax, a gate or a GeLU — would depend on the
// CPU. Every product whose result feeds an addition or a subtraction is
// written through a float64 conversion, the Go spec's fusion barrier, so no
// compiler on any GOARCH or GOAMD64 level may fuse it either: the bits of
// exp, tanh, σ and the activations below are a function of the input alone,
// and activation_test.go pins them (on amd64; arm64, whose compiler does
// fuse unguarded products, is cross-compiled here, not run). softplus is
// the exception: it takes its logarithm from math.Log1p, plain Go that is
// the same on every amd64 CPU but that a fusing compiler may round
// differently, so its bits are promised for amd64 alone.

const (
	// expMax is ln(MaxFloat64): above it e^x is +Inf. Below expMin e^x
	// rounds to +0.
	expMax = 7.09782712893383973096e+02
	expMin = -7.45133219101941108420e+02

	log2e = 1.44269504088896338700e+00
	// ln2Hi + ln2Lo = ln 2; ln2Hi has 32 significant bits, so k·ln2Hi is
	// exact for every k exp reaches.
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10
	// roundC rounds a float below 2^51 in magnitude to an integer, ties to
	// even, when added and subtracted; the sum's low bits are that integer.
	roundC = 0x1.8p52
)

// The Taylor coefficients 1/n! of e^r = 1 + r + r²·(expQ0 + expQ1·r + … +
// expQ11·r¹¹), whose tail past r¹³ is below 2^−57 on |r| ≤ ln2/2.
const (
	expQ0  = 1.0 / 2
	expQ1  = 1.0 / 6
	expQ2  = 1.0 / 24
	expQ3  = 1.0 / 120
	expQ4  = 1.0 / 720
	expQ5  = 1.0 / 5040
	expQ6  = 1.0 / 40320
	expQ7  = 1.0 / 362880
	expQ8  = 1.0 / 3628800
	expQ9  = 1.0 / 39916800
	expQ10 = 1.0 / 479001600
	expQ11 = 1.0 / 6227020800
)

// exp returns e^x within 2 ulp of math.Exp (TestActivationAccuracy):
// x = k·ln2 + hi − lo with hi exact and |hi − lo| ≤ ln2/2, e^r from its
// Taylor polynomial by Estrin's scheme — no division, and a dependency chain
// less than half as deep as Horner's — and
// the scaling by 2^k exact: k added to y's exponent where the result is
// normal, else two multiplications by powers of two, the second rounding
// once. (The row kernels of activation_amd64.s run this same sequence of
// operations on the normal path, eight lanes at a time.)
func exp(x float64) float64 {
	switch {
	case x != x:
		return x
	case x > expMax:
		return math.Inf(1)
	case x < expMin:
		return 0
	}
	kf := float64(float64(x*log2e)+roundC) - roundC
	hi := x - float64(kf*ln2Hi)
	lo := float64(kf * ln2Lo)
	r := hi - lo
	r2 := r * r
	r4 := r2 * r2
	q01 := expQ0 + float64(expQ1*r)
	q23 := expQ2 + float64(expQ3*r)
	q45 := expQ4 + float64(expQ5*r)
	q67 := expQ6 + float64(expQ7*r)
	q89 := expQ8 + float64(expQ9*r)
	q1011 := expQ10 + float64(expQ11*r)
	q03 := q01 + float64(q23*r2)
	q47 := q45 + float64(q67*r2)
	q811 := q89 + float64(q1011*r2)
	q := q03 + float64(float64(q47+float64(q811*r4))*r4)
	y := 1 + (hi + (float64(r2*q) - lo))
	k := int(kf)
	if k < -1021 || k > 1022 {
		return y * pow2(k/2) * pow2(k-k/2)
	}
	return math.Float64frombits(math.Float64bits(y) + uint64(k)<<52)
}

// pow2 returns 2^k for a k in the normal exponent range.
func pow2(k int) float64 { return math.Float64frombits(uint64(k+1023) << 52) }

// The Cephes rational form of tanh on |x| < 0.625: x + x³·P(x²)/Q(x²).
const (
	tanhP0 = -9.64399179425052238628e-1
	tanhP1 = -9.92877231001918586564e1
	tanhP2 = -1.61468768441708447952e3
	tanhQ0 = 1.12811678491632931402e2
	tanhQ1 = 2.23548839060100448583e3
	tanhQ2 = 4.84406305325125486048e3

	// tanhClamp is where tanh is ±1 to the last bit: from |x| ≈ 19.06 on,
	// 2/(e^2|x| + 1) is below half an ulp of 1.
	tanhClamp = 22
)

// tanh returns tanh(x): the rational form near 0, 1 − 2/(e^2|x| + 1) with
// the sign of x up to the clamp, ±1 past it.
func tanh(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > tanhClamp:
		return math.Copysign(1, x)
	case z >= 0.625:
		return math.Copysign(1-2/(exp(2*z)+1), x)
	case x == 0:
		return x
	}
	s := x * x
	p := float64(float64(float64(tanhP0*s)+tanhP1)*s) + tanhP2
	q := float64(float64(float64((s+tanhQ0)*s)+tanhQ1)*s) + tanhQ2
	return x + x*s*p/q
}

// sigmoidParts returns σ(x) = 1/(1 + e^−x) and its derivative σ(1 − σ),
// both from one e^−|x|, which never overflows: with a = e^−|x| and
// d = 1/(1 + a), σ is d for x ≥ 0 and a·d below, and σ(1 − σ) is a·d² on
// both sides, so neither tail loses its digits to a cancellation.
func sigmoidParts(x float64) (s, ds float64) {
	a := exp(-math.Abs(x))
	d := 1 / (1 + a)
	s = d
	if x < 0 {
		s = a * d
	}
	return s, a * d * d
}

func sigmoid(x float64) float64 {
	s, _ := sigmoidParts(x)
	return s
}

func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	return math.Log1p(exp(x))
}

// GeLU is the tanh approximation (as in GPT-2), 0.5·x·(1 + tanh(u)) with
// u = √(2/π)·(x + 0.044715·x³), computed as the identical x·σ(2u): one
// exponential, and no cancellation in 1 + tanh(u) where u is negative.
const (
	gelu2C = 2 * 0.7978845608028654 // 2·√(2/π)
	geluA  = 0.044715
)

// geluParts returns σ(2u) and σ'(2u) at x.
func geluParts(x float64) (s, ds float64) {
	return sigmoidParts(gelu2C * (x + float64(geluA*x*x*x)))
}

func gelu(x float64) float64 {
	s, _ := geluParts(x)
	return x * s
}

// GeLUGrad returns d gelu(x)/dx at x: σ(2u) + x·σ'(2u)·2u'(x).
func GeLUGrad(x float64) float64 {
	s, ds := geluParts(x)
	return s + float64(x*ds*gelu2C*(1+float64(3*geluA*x*x)))
}

func silu(x float64) float64 { return x * sigmoid(x) }

// SiLUGrad returns d silu(x)/dx at x: σ(x) + x·σ(x)(1 − σ(x)).
func SiLUGrad(x float64) float64 {
	s, ds := sigmoidParts(x)
	return s + float64(x*ds)
}

// actK is the constant table of the AVX-512 row kernels
// (activation_amd64.s), in the order their registers load it, so the
// kernels read the very constants the scalar code rounds with.
var actK = [...]float64{
	geluA, gelu2C, math.Copysign(0, -1), log2e, roundC, ln2Hi, ln2Lo, 1, 3 * geluA, -1021,
	expQ10, expQ11, expQ8, expQ9, expQ6, expQ7, expQ2, expQ3, expQ4, expQ5, expQ0, expQ1,
}

// GeLURow stores GeLU(x[j]) in dst[j] for every j of x — the scalar GeLUInto
// applies, over a row, eight lanes at a time where the CPU has AVX-512, with
// the scalar bits. dst must not overlap x.
func GeLURow(dst, x []float64) {
	dst = dst[:len(x)]
	v := 0
	if use512 {
		if v = len(x) &^ 7; v > 0 && geluRow512(&dst[0], &x[0], v) {
			v = 0 // a lane off exp's normal path: the row is the scalar code's
		}
	}
	for j := v; j < len(x); j++ {
		dst[j] = gelu(x[j])
	}
}

// GeLUGradRow stores dy[j]·GeLUGrad(x[j]) in dst[j] for every j of x, with
// the vector form and the bits of GeLURow. dst must not overlap dy or x.
func GeLUGradRow(dst, dy, x []float64) {
	dst, dy = dst[:len(x)], dy[:len(x)]
	v := 0
	if use512 {
		if v = len(x) &^ 7; v > 0 && geluGradRow512(&dst[0], &dy[0], &x[0], v) {
			v = 0
		}
	}
	for j := v; j < len(x); j++ {
		dst[j] = dy[j] * GeLUGrad(x[j])
	}
}

// SigmoidAt is the scalar Sigmoid applies, for callers with one value at a
// time (the gates' combine weights and the noise path's softplus').
func SigmoidAt(x float64) float64 { return sigmoid(x) }

// SiLUAt is the scalar SiLUInto applies, for callers that write the result
// through a strided column window.
func SiLUAt(x float64) float64 { return silu(x) }
