package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m, n := 1+r.Intn(10), 1+r.Intn(10)
		a := RandN(r, 3, m, n)
		s := SoftmaxRows(a)
		for i := 0; i < m; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				v := s.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsStability(t *testing.T) {
	// Huge logits must not overflow.
	a := FromData([]float64{1000, 1001, 1002}, 1, 3)
	s := SoftmaxRows(a)
	sum := s.At(0, 0) + s.At(0, 1) + s.At(0, 2)
	if math.IsNaN(sum) || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax unstable: %v", s.Data())
	}
	if s.At(0, 2) <= s.At(0, 1) {
		t.Fatal("ordering not preserved")
	}
}

func TestSoftmaxAllMaskedRow(t *testing.T) {
	inf := math.Inf(-1)
	a := FromData([]float64{inf, inf}, 1, 2)
	s := SoftmaxRows(a)
	if s.At(0, 0) != 0 || s.At(0, 1) != 0 {
		t.Fatalf("all-masked row should softmax to zeros, got %v", s.Data())
	}
}

func TestSoftmaxColsSumToOne(t *testing.T) {
	r := xrand.New(9)
	a := RandN(r, 2, 6, 4)
	s := SoftmaxCols(a)
	for j := 0; j < 4; j++ {
		sum := 0.0
		for i := 0; i < 6; i++ {
			sum += s.At(i, j)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("column %d sums to %v", j, sum)
		}
	}
}

func TestSoftmaxColsMatchesTransposedRows(t *testing.T) {
	r := xrand.New(10)
	a := RandN(r, 1, 5, 3)
	viaCols := SoftmaxCols(a)
	viaRows := Transpose2D(SoftmaxRows(Transpose2D(a)))
	if !viaCols.AllClose(viaRows, 1e-12) {
		t.Fatal("SoftmaxCols inconsistent with row softmax of transpose")
	}
}

func TestTopKBasic(t *testing.T) {
	v := []float64{1, 9, 3, 7, 5}
	got := TopK(v, 3)
	want := []int{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", got, want)
		}
	}
}

func TestTopKTieBreaksLowIndex(t *testing.T) {
	v := []float64{5, 5, 5}
	got := TopK(v, 2)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("TopK tie = %v, want [0 1]", got)
	}
}

func TestTopKProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(30)
		k := 1 + r.Intn(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		idx := TopK(v, k)
		if len(idx) != k {
			return false
		}
		// Every selected value must be >= every unselected value.
		sel := map[int]bool{}
		minSel := math.Inf(1)
		for _, i := range idx {
			sel[i] = true
			if v[i] < minSel {
				minSel = v[i]
			}
		}
		for i, x := range v {
			if !sel[i] && x > minSel {
				return false
			}
		}
		// Descending order.
		for i := 1; i < k; i++ {
			if v[idx[i]] > v[idx[i-1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKIntoMatchesTopK: the insertion form picks the indices the sorting
// form picks, in its order, ties (few distinct values) included.
func TestTopKIntoMatchesTopK(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(30)
		k := 1 + r.Intn(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r.Intn(6)) // many ties
			if seed%2 == 0 {
				v[i] = r.NormFloat64()
			}
		}
		got := make([]int, k)
		TopKInto(got, v)
		for i, want := range TopK(v, k) {
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestKeepTopK(t *testing.T) {
	v := []float64{1, 9, 3}
	out := KeepTopK(v, 1)
	if out[1] != 9 || !math.IsInf(out[0], -1) || !math.IsInf(out[2], -1) {
		t.Fatalf("KeepTopK = %v", out)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{3, 1, 3}) != 0 {
		t.Fatal("ArgMax tie should pick lowest index")
	}
	if ArgMax([]float64{-5, -1, -9}) != 1 {
		t.Fatal("ArgMax wrong")
	}
}

func TestL2NormalizeRows(t *testing.T) {
	a := FromData([]float64{3, 4, 0, 0}, 2, 2)
	n := L2NormalizeRows(a)
	if math.Abs(n.At(0, 0)-0.6) > 1e-12 || math.Abs(n.At(0, 1)-0.8) > 1e-12 {
		t.Fatalf("normalize = %v", n.Data())
	}
	if n.At(1, 0) != 0 || n.At(1, 1) != 0 {
		t.Fatal("zero row must stay zero")
	}
}

func TestCosineRowsSelfIsOne(t *testing.T) {
	r := xrand.New(12)
	a := RandN(r, 1, 4, 8)
	c := CosineRows(a, a)
	for i := 0; i < 4; i++ {
		if math.Abs(c.At(i, i)-1) > 1e-9 {
			t.Fatalf("cos(a,a) = %v", c.At(i, i))
		}
	}
}

func TestCosineRowsBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m, e, d := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(10)
		a := RandN(r, 1, m, d)
		b := RandN(r, 1, e, d)
		c := CosineRows(a, b)
		for _, v := range c.Data() {
			if v > 1+1e-9 || v < -1-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOneHot(t *testing.T) {
	h := OneHot([]int{2, 0, -1}, 3)
	want := FromData([]float64{0, 0, 1, 1, 0, 0, 0, 0, 0}, 3, 3)
	if !h.AllClose(want, 0) {
		t.Fatalf("OneHot = %v", h.Data())
	}
}

func TestActivationGradientsNumerically(t *testing.T) {
	const eps = 1e-6
	check := func(name string, f, g func(float64) float64) {
		for _, x := range []float64{-3, -1, -0.1, 0, 0.1, 1, 3} {
			num := (f(x+eps) - f(x-eps)) / (2 * eps)
			ana := g(x)
			if math.Abs(num-ana) > 1e-5 {
				t.Errorf("%s grad at %v: numeric %v vs analytic %v", name, x, num, ana)
			}
		}
	}
	check("gelu", gelu, GeLUGrad)
	check("silu", silu, SiLUGrad)
	check("sigmoid", sigmoid, func(x float64) float64 { return SigmoidGrad(sigmoid(x)) })
}

func TestSoftplusStability(t *testing.T) {
	a := FromData([]float64{-50, 0, 50}, 3)
	s := Softplus(a)
	if s.At(0) < 0 || s.At(0) > 1e-20 {
		t.Fatalf("softplus(-50) = %v", s.At(0))
	}
	if math.Abs(s.At(1)-math.Log(2)) > 1e-12 {
		t.Fatalf("softplus(0) = %v", s.At(1))
	}
	if math.Abs(s.At(2)-50) > 1e-9 {
		t.Fatalf("softplus(50) = %v", s.At(2))
	}
}

func TestXavierBounds(t *testing.T) {
	r := xrand.New(77)
	w := Xavier(r, 100, 50)
	limit := math.Sqrt(6.0 / 150.0)
	for _, v := range w.Data() {
		if v < -limit || v >= limit {
			t.Fatalf("xavier value %v outside ±%v", v, limit)
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := xrand.New(1)
	x := RandN(r, 1, 128, 128)
	y := RandN(r, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}
