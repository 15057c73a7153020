package tensor

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m, n := 1+int(r.Uint64()%10), 1+int(r.Uint64()%10)
		a := RandN(r, 3, m, n)
		s := New(m, n)
		SoftmaxRowsInto(s, a)
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
	s := New(1, 3)
	SoftmaxRowsInto(s, a)
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
	s := New(1, 2)
	SoftmaxRowsInto(s, a)
	if s.At(0, 0) != 0 || s.At(0, 1) != 0 {
		t.Fatalf("all-masked row should softmax to zeros, got %v", s.Data())
	}
}

func TestTopKBasic(t *testing.T) {
	v := []float64{1, 9, 3, 7, 5}
	got := make([]int, 3)
	TopKInto(got, v)
	want := []int{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopKInto = %v, want %v", got, want)
		}
	}
}

func TestTopKTieBreaksLowIndex(t *testing.T) {
	v := []float64{5, 5, 5}
	got := make([]int, 2)
	TopKInto(got, v)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("TopKInto tie = %v, want [0 1]", got)
	}
}

func TestTopKProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + int(r.Uint64()%30)
		k := 1 + int(r.Uint64()%uint64(n))
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		idx := make([]int, k)
		TopKInto(idx, v)
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

// TestTopKIntoMatchesTopK: the insertion form picks the indices a stable
// sort by descending value puts first, in its order, ties (few distinct
// values) included.
func TestTopKIntoMatchesTopK(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + int(r.Uint64()%30)
		k := 1 + int(r.Uint64()%uint64(n))
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(int(r.Uint64() % 6)) // many ties
			if seed%2 == 0 {
				v[i] = r.NormFloat64()
			}
		}
		got := make([]int, k)
		TopKInto(got, v)
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return v[want[a]] > v[want[b]] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestL2NormalizeRows(t *testing.T) {
	n := FromData([]float64{3, 4, 0, 0}, 2, 2)
	l2NormalizeRows(n)
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
	c := New(4, 4)
	CosineRowsInto(c, a, a)
	for i := 0; i < 4; i++ {
		if math.Abs(c.At(i, i)-1) > 1e-9 {
			t.Fatalf("cos(a,a) = %v", c.At(i, i))
		}
	}
}

func TestCosineRowsBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m, e, d := 1+int(r.Uint64()%6), 1+int(r.Uint64()%6), 1+int(r.Uint64()%10)
		a := RandN(r, 1, m, d)
		b := RandN(r, 1, e, d)
		c := New(m, e)
		c.Fill(math.NaN()) // overwritten whole
		CosineRowsInto(c, a, b)
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
}

func TestSoftplusStability(t *testing.T) {
	if s := SoftplusAt(-50); s < 0 || s > 1e-20 {
		t.Fatalf("softplus(-50) = %v", s)
	}
	if s := SoftplusAt(0); math.Abs(s-math.Log(2)) > 1e-12 {
		t.Fatalf("softplus(0) = %v", s)
	}
	if s := SoftplusAt(50); math.Abs(s-50) > 1e-9 {
		t.Fatalf("softplus(50) = %v", s)
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
