package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// rowCase is one input of the element-wise row kernels: n elements starting
// off elements into their buffers (odd offsets give bases off a vector's
// alignment), specialPct% of them drawn from rowSpecials, and the scalar a
// of AddScaledRowTo.
type rowCase struct {
	seed       uint64
	n, off     int
	specialPct int
	a          float64
}

func (c rowCase) String() string {
	return fmt.Sprintf("seed=%d n=%d off=%d special=%d%% a=%v", c.seed, c.n, c.off, c.specialPct, c.a)
}

// rowSpecials are the values the row kernels must carry like the scalar
// loops: signed zeros, infinities, NaN, subnormals, and the largest finite
// doubles, whose sums overflow.
var rowSpecials = []float64{
	0, negZero, math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 0x1p-1023, -0x1.8p-1030, 0x1p-1022,
	math.MaxFloat64, -math.MaxFloat64,
}

// rowScalars are the a values TestRowKernelsMatchScalar runs: a learning
// rate, the unweighted combine's 1, a combine weight, the signed zeros, the
// infinities, NaN and a subnormal.
var rowScalars = []float64{1e-3, 1, -0.7, 0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), 0x1p-1040}

// rowOperand returns off+n+8 elements: off and 8 sentinels around n values,
// normals over 2⁴¹ magnitudes with specialPct% from rowSpecials.
func rowOperand(rng *xrand.RNG, n, off, specialPct int) []float64 {
	x := make([]float64, off+n+8)
	for i := range x {
		x[i] = -1234.5
	}
	for i := off; i < off+n; i++ {
		if int(rng.Uint64()%100) < specialPct {
			x[i] = rowSpecials[int(rng.Uint64()%uint64(len(rowSpecials)))]
		} else {
			x[i] = rng.NormFloat64() * math.Ldexp(1, int(rng.Uint64()%41)-20)
		}
	}
	return x
}

// checkRowKernels runs AddRow, ScaleRow, AddScaledRow (by a and by −a) and
// AddScaledRowTo into a third buffer on the case's operands and requires
// every buffer, sentinels included, to carry the bits of the scalar loops
// they replace; where the loop gives a NaN any NaN will do. AddScaledRow is
// AddScaledRowTo with dst = base, so both of its forms run.
func checkRowKernels(t *testing.T, c rowCase) {
	t.Helper()
	rng := xrand.New(c.seed)
	dst, src := rowOperand(rng, c.n, c.off, c.specialPct), rowOperand(rng, c.n, c.off, c.specialPct)
	lo, hi := c.off, c.off+c.n
	equal := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%v: %s element %d = %v (%#016x), the scalar loop gives %v (%#016x)",
					c, what, i-lo, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}

	got, want := clone(dst), clone(dst)
	AddRow(got[lo:hi], src[lo:hi])
	for i, v := range src[lo:hi] {
		want[lo+i] += v
	}
	equal("AddRow dst", got, want)

	got, want = clone(dst), clone(dst)
	AddScaledRow(got[lo:hi], src[lo:hi], c.a)
	for i, v := range src[lo:hi] {
		want[lo+i] += float64(c.a * v)
	}
	equal("AddScaledRow dst", got, want)

	got, want = clone(dst), clone(dst)
	ScaleRow(got[lo:hi], src[lo:hi], c.a)
	for i, v := range src[lo:hi] {
		want[lo+i] = c.a * v
	}
	equal("ScaleRow dst", got, want)

	// The SGD step w − a·grad is AddScaledRow by −a, with the bits of the
	// difference.
	got, want = clone(dst), clone(dst)
	AddScaledRow(got[lo:hi], src[lo:hi], -c.a)
	for i, v := range src[lo:hi] {
		want[lo+i] -= float64(c.a * v)
	}
	equal("AddScaledRow by −a", got, want)

	// Out of place, as the step's update into a spare parameter buffer:
	// base and src are read, not written.
	out := rowOperand(rng, c.n, c.off, c.specialPct)
	base, grad := clone(dst), clone(src)
	got, want = clone(out), clone(out)
	AddScaledRowTo(got[lo:hi], base[lo:hi], grad[lo:hi], -c.a)
	for i, v := range src[lo:hi] {
		want[lo+i] = dst[lo+i] - float64(c.a*v)
	}
	equal("AddScaledRowTo dst", got, want)
	equal("AddScaledRowTo base", base, dst)
	equal("AddScaledRowTo src", grad, src)
}

func clone(x []float64) []float64 { return append([]float64(nil), x...) }

// TestRowKernelsMatchScalar holds the row kernels to the scalar loops bit
// for bit on every length from 0 to 300 at every offset within a vector,
// with and without special values, for each of rowScalars.
func TestRowKernelsMatchScalar(t *testing.T) {
	seed := uint64(0)
	for n := 0; n <= 300; n++ {
		for off := 0; off < 8; off++ {
			seed++
			checkRowKernels(t, rowCase{seed: seed, n: n, off: off, specialPct: []int{0, 5, 40}[seed%3], a: rowScalars[seed%uint64(len(rowScalars))]})
		}
	}
}

// FuzzRowKernels drives the same check from fuzzed lengths up to 300,
// offsets, special-value shares and scalars.
func FuzzRowKernels(f *testing.F) {
	for _, c := range rowFuzzSeeds {
		f.Add(c.seed, uint16(c.n), uint8(c.off), uint8(c.specialPct), c.a)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, off, specialPct uint8, a float64) {
		checkRowKernels(t, fuzzRowCase(seed, n, off, specialPct, a))
	})
}

var rowFuzzSeeds = []rowCase{
	{seed: 1, n: 37, off: 3, specialPct: 0, a: 1e-3},
	{seed: 2, n: 256, off: 0, specialPct: 10, a: 1},
	{seed: 3, n: 7, off: 1, specialPct: 100, a: -0.5},
	{seed: 4, n: 300, off: 5, specialPct: 30, a: math.Inf(-1)},
}

// fuzzRowCase maps FuzzRowKernels' arguments to its case.
func fuzzRowCase(seed uint64, n uint16, off, specialPct uint8, a float64) rowCase {
	return rowCase{seed: seed, n: int(n % 301), off: int(off % 8), specialPct: int(specialPct % 101), a: a}
}
