package tensor

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/xrand"
)

// ulps is the distance between a and b in units in the last place: the
// number of doubles from one to the other, across zero and the subnormals.
func ulps(a, b float64) uint64 {
	ord := func(x float64) int64 {
		if u := int64(math.Float64bits(x)); u < 0 {
			return math.MinInt64 - u
		}
		return int64(math.Float64bits(x))
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// bigExp returns e^x correctly rounded: e^(x/1024) by its Taylor series in
// 256-bit arithmetic, squared ten times.
func bigExp(x float64) float64 {
	const prec = 256
	y := new(big.Float).SetPrec(prec).SetFloat64(x / 1024)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for n := int64(1); n < 64; n++ {
		term.Mul(term, y)
		term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(n))
		sum.Add(sum, term)
	}
	for range 10 {
		sum.Mul(sum, sum)
	}
	f, _ := sum.Float64()
	return f
}

// mathExpOverflow is where amd64's math.Exp starts returning +Inf: it does
// from here to expMax, where e^x is still finite. Inside that band exp is
// held to the correctly rounded bigExp instead.
const mathExpOverflow = 709.4361393031039

// TestActivationAccuracy holds exp and tanh to 2 ulp of math.Exp and
// math.Tanh: a dense sweep of [−40, 40], exp over its whole finite range
// (subnormal results included), and the edges — ±0, ±Inf, NaN, subnormal
// inputs, exp's overflow and underflow thresholds, tanh's rational/exp
// switch at 0.625 and its clamp at ±1.
func TestActivationAccuracy(t *testing.T) {
	refExp := func(x float64) float64 {
		if x > mathExpOverflow && x <= expMax {
			return bigExp(x)
		}
		return math.Exp(x)
	}
	check := func(name string, f, ref func(float64) float64, x float64) {
		t.Helper()
		got, want := f(x), ref(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("%s(%v) = %v, want NaN", name, x, got)
			}
			return
		}
		if d := ulps(got, want); d > 2 {
			t.Fatalf("%s(%v) = %v (%#x), math gives %v (%#x): %d ulp apart", name, x, got, math.Float64bits(got), want, math.Float64bits(want), d)
		}
	}
	for i := -1_300_000; i <= 1_300_000; i++ {
		x := float64(i) * (40.0 / 1_300_000)
		check("exp", exp, refExp, x)
		check("tanh", tanh, math.Tanh, x)
	}
	for x := expMin - 1; x < expMax+1; x += 1.0 / 256 {
		check("exp", exp, refExp, x)
	}
	edges := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 0x1p-1022, -0x1p-1022, 0x1p-1023,
		expMax, math.Nextafter(expMax, 1000), math.Nextafter(expMax, 0),
		expMin, math.Nextafter(expMin, -1000), math.Nextafter(expMin, 0), -708.39, -708.4, -1e300, 1e300,
		0.625, math.Nextafter(0.625, 0), -0.625, math.Nextafter(-0.625, 0),
		tanhClamp, math.Nextafter(tanhClamp, 100), -tanhClamp, math.Nextafter(-tanhClamp, -100), 19.06, 19.07,
	}
	for _, x := range edges {
		check("exp", exp, refExp, x)
		check("tanh", tanh, math.Tanh, x)
	}
}

// activationBits pins the exact bits of the repository's elementary
// functions and activations: x, then exp, tanh, GeLU, GeLUGrad, SiLU,
// SiLUGrad and sigmoid at x. Any later vector kernel must reproduce them.
var activationBits = []struct {
	x                                                  float64
	exp, tanh, gelu, geluGrad, silu, siluGrad, sigmoid uint64
}{
	{-40, 0x3c539792499b1a24, 0xbff0000000000000, 0x8000000000000000, 0x0000000000000000, 0xbca87d76dc01e0ad, 0xbca7e0ba49b507dc, 0x3c539792499b1a24},
	{-21.5, 0x3dff9abe68b14e81, 0xbff0000000000000, 0x8000000000000040, 0x8000000000001918, 0xbe453bf7ee2d2f31, 0xbe443f21fabfa69b, 0x3dff9abe6872e107},
	{-20, 0x3e21b48655f37267, 0xbff0000000000000, 0x89da927dc6157dd6, 0x8a4218af673aa2bb, 0xbe6621a7eaac6349, 0xbe65065f84930c34, 0x3e21b4865556b5d4},
	{-10, 0x3f07cd79b5647c9a, 0xbfeffffffdc96f35, 0xb8447c8fd5284fd8, 0xb88d53013e7e8568, 0xbf3dc07f9d254fb8, 0xbf3ac680bc10a72c, 0x3f07cd32e41dd960},
	{-5, 0x3f7b993fe00d5376, 0xbfefff419668df11, 0xbe8ec28d40db8452, 0xbeb9f192fc6d4e98, 0xbfa1223a0e5e39b9, 0xbf9b2f4008500fb8, 0x3f7b69f67d638f8f},
	{-3, 0x3fa97db0ccceb0af, 0xbfefd77d111a0b00, 0xbf6dcc2a011612ba, 0xbf87b97086a6c481, 0xbfc236272d6c3f34, 0xbfb68dfd9dfa7d0b, 0x3fa848343c905446},
	{-2, 0x3fc152aaa3bf81cc, 0xbfeed9505e1bc3d4, 0xbfa73ef8961cab35, 0xbfb60a99d36889c6, 0xbfce84152bac31ae, 0xbfb73da2f385e6d8, 0x3fbe84152bac31ae},
	{-1.5, 0x3fcc8f87724b5c1d, 0xbfecf6f9786df577, 0xbfb9b5ad587570d6, 0xbfc058d3c7f73f84, 0xbfd1834a280394c3, 0xbfa52481e4762afc, 0x3fc759b8355a1baf},
	{-1, 0x3fd78b56362cef38, 0xbfe85efab514f394, 0xbfc453d223571479, 0xbfb53d225adc388e, 0xbfd136561454ba87, 0x3fb2842f720c62f2, 0x3fd136561454ba87},
	{-0.7, 0x3fdfc80db9dd5542, 0xbfe356fb17af2e91, 0xbfc5afe0b9341f6b, 0x3f9835d032a25118, 0xbfcdbaf9e56ec6b8, 0x3fc69b430a82fd7f, 0x3fd53c695abcd716},
	{-0.625, 0x3fe120dc934993e8, 0xbfe1bf47eabb8f96, 0xbfc548a017796b87, 0x3faf47721af1f2d0, 0xbfcbe4409b6d80d7, 0x3fca7590d03c2182, 0x3fd65033af8acd79},
	{-0.5, 0x3fe368b2fc6f960a, 0xbfdd9353d7568af3, 0xbfc3bfa4b104180f, 0x3fc0fa05e3645b4f, 0xbfc829a0565978df, 0x3fd0a479d50e732e, 0x3fd829a0565978df},
	{-0.1, 0x3fecf46d99d52b3a, 0xbfb983d7795f413a, 0xbfa78f92a69f9d32, 0x3fdae91d70f089a5, 0xbfa852315af08074, 0x3fdcce29cd3f9b51, 0x3fde66bdb1aca090},
	{-0.001, 0x3feff7cfe56f1a9e, 0xbf50624d77516ce2, 0xbf405ef51a24868b, 0x3fdff2ed6e43698f, 0xbf406034f40081d8, 0x3fdff7ced92d6f3a, 0x3fdffbe76c90fd99},
	{-1e-09, 0x3fefffffff768fa1, 0xbe112e0be826d695, 0xbe012e0be7ebf6f9, 0x3fdfffffff24addf, 0xbe012e0be801f1da, 0x3fdfffffff768fa1, 0x3fdfffffffbb47d1},
	{negZero, 0x3ff0000000000000, 0x8000000000000000, 0x8000000000000000, 0x3fe0000000000000, 0x8000000000000000, 0x3fe0000000000000, 0x3fe0000000000000},
	{0, 0x3ff0000000000000, 0x0000000000000000, 0x0000000000000000, 0x3fe0000000000000, 0x0000000000000000, 0x3fe0000000000000, 0x3fe0000000000000},
	{1e-09, 0x3ff000000044b830, 0x3e112e0be826d695, 0x3e012e0be861b632, 0x3fe00000006da912, 0x3e012e0be84bbb51, 0x3fe000000044b830, 0x3fe0000000225c18},
	{0.001, 0x3ff0041919b7ee34, 0x3f50624d77516ce2, 0x3f4065a68bbecd6d, 0x3fe0068948de4b38, 0x3f406466b1e2d220, 0x3fe0041893694862, 0x3fe0020c49b78133},
	{0.1, 0x3ff1aec7b35a00d4, 0x3fb983d7795f413a, 0x3faba3a08c939604, 0x3fe28b714787bb2e, 0x3faae101d842b2c0, 0x3fe198eb19603258, 0x3fe0cca12729afb8},
	{0.5, 0x3ffa61298e1e069c, 0x3fdd9353d7568af3, 0x3fd6202da77df3f9, 0x3febc17e8726e92d, 0x3fd3eb2fd4d34391, 0x3fe7adc31578c669, 0x3fe3eb2fd4d34391},
	{0.625, 0x3ffde455df80e3c0, 0x3fe1bf47eabb8f96, 0x3fdd5baff4434a3d, 0x3fee0b88de50e0d4, 0x3fda0ddfb2493f94, 0x3fe9629bcbf0f79f, 0x3fe4d7e6283a9943},
	{0.7, 0x40001c2a61268987, 0x3fe356fb17af2e91, 0x3fe0fa6e38195e8b, 0x3fef3e517e6aed76, 0x3fddef4fda156971, 0x3fea592f3d5f40a1, 0x3fe561cb52a19476},
	{1, 0x4005bf0a8b14576a, 0x3fe85efab514f394, 0x3feaeb0b772a3ae2, 0x3ff153d225adc389, 0x3fe764d4f5d5a2bd, 0x3fedaf7a11be73a2, 0x3fe764d4f5d5a2bd},
	{1.5, 0x4011ed3fe64fc541, 0x3fecf6f9786df577, 0x3ff664a52a78a8f2, 0x3ff20b1a78fee7f0, 0x3ff39f2d75ff1acf, 0x3ff0a9240f23b158, 0x3fea2991f2a97914},
	{2, 0x401d8e64b8d4ddae, 0x3feed9505e1bc3d4, 0x3fff46083b4f1aa7, 0x3ff160a99d36889d, 0x3ffc2f7d5a8a79c9, 0x3ff173da2f385e6d, 0x3fec2f7d5a8a79c9},
	{3, 0x403415e5bf6fb106, 0x3fefd77d111a0b00, 0x4007f88cf57fba7c, 0x3ff02f72e10d4d89, 0x4006dc9d8d293c0e, 0x3ff168dfd9dfa7d1, 0x3fee7b7cbc36fabd},
	{5, 0x40628d389970338f, 0x3fefff419668df11, 0x4013fffff09eb960, 0x3ff000019f192fc7, 0x4013ddbb8be3438d, 0x3ff06cbd0021403f, 0x3fefc92c130538e2},
	{10, 0x40d5829dcf950560, 0x3feffffffdc96f35, 0x4024000000000000, 0x3ff0000000000000, 0x4023ffc47f00c5b6, 0x3ff001ac680bc10b, 0x3fefffa0cb346f89},
	{20, 0x41bceb088b68e804, 0x3ff0000000000000, 0x4034000000000000, 0x3ff0000000000000, 0x4033ffffff4ef2c0, 0x3ff000000a832fc2, 0x3feffffffee4b79a},
	{22, 0x41eab5adb9c43600, 0x3ff0000000000000, 0x4036000000000000, 0x3ff0000000000000, 0x4035ffffffe5a47c, 0x3ff0000001928cf7, 0x3fefffffffd9a96e},
	{40, 0x438a220d397972ea, 0x3ff0000000000000, 0x4044000000000000, 0x3ff0000000000000, 0x4044000000000000, 0x3ff0000000000001, 0x3ff0000000000000},
}

var negZero = math.Copysign(0, -1)

func TestActivationBits(t *testing.T) {
	x := make([]float64, len(activationBits))
	for i, c := range activationBits {
		x[i] = c.x
		for _, f := range []struct {
			name string
			got  float64
			want uint64
		}{
			{"exp", exp(c.x), c.exp}, {"tanh", tanh(c.x), c.tanh}, {"GeLU", gelu(c.x), c.gelu},
			{"GeLUGrad", GeLUGrad(c.x), c.geluGrad}, {"SiLU", silu(c.x), c.silu},
			{"SiLUGrad", SiLUGrad(c.x), c.siluGrad}, {"sigmoid", sigmoid(c.x), c.sigmoid},
		} {
			if math.Float64bits(f.got) != f.want {
				t.Errorf("%s(%v) = %#016x, pinned %#016x", f.name, c.x, math.Float64bits(f.got), f.want)
			}
		}
	}
	// The row forms, on whatever kernel this CPU selects: dy = 1 leaves
	// GeLUGradRow's product exact.
	g, gg, ones := make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x))
	for i := range ones {
		ones[i] = 1
	}
	GeLURow(g, x)
	GeLUGradRow(gg, ones, x)
	for i, c := range activationBits {
		if math.Float64bits(g[i]) != c.gelu || math.Float64bits(gg[i]) != c.geluGrad {
			t.Errorf("row forms at %v: GeLU %#016x, GeLUGrad %#016x; pinned %#016x, %#016x",
				c.x, math.Float64bits(g[i]), math.Float64bits(gg[i]), c.gelu, c.geluGrad)
		}
	}
}

// TestActivationRowsMatchScalar holds the row forms to the scalar code bit
// for bit on rows of every length up to three vectors past a start of every
// alignment, with the inputs that leave exp's normal path — NaN, ±Inf, and
// the far negative tail whose exponentials are subnormal — planted in some.
func TestActivationRowsMatchScalar(t *testing.T) {
	rng := xrand.New(5)
	x, dy := make([]float64, 64), make([]float64, 64)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -21.5, -30, -1e300, 1e300}
	for trial := 0; trial < 400; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64() * float64(1+trial%8)
			dy[i] = rng.NormFloat64()
		}
		if trial%3 == 0 {
			x[rng.Intn(len(x))] = special[rng.Intn(len(special))]
		}
		lo := trial % 8
		n := rng.Intn(len(x) - lo)
		g, gg := make([]float64, n), make([]float64, n)
		GeLURow(g, x[lo:lo+n])
		GeLUGradRow(gg, dy[lo:lo+n], x[lo:lo+n])
		for i := range n {
			v := x[lo+i]
			for _, c := range [][2]float64{{g[i], gelu(v)}, {gg[i], dy[lo+i] * GeLUGrad(v)}} {
				if math.Float64bits(c[0]) != math.Float64bits(c[1]) && !(math.IsNaN(c[0]) && math.IsNaN(c[1])) {
					t.Fatalf("trial %d, x = %v: row form gives %v, the scalar code %v", trial, v, c[0], c[1])
				}
			}
		}
	}
}
