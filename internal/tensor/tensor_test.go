package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewZeroFilled(t *testing.T) {
	a := New(3, 4)
	if a.Size() != 12 {
		t.Fatalf("Size = %d, want 12", a.Size())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if a.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, a.At(i, j))
			}
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(2, 3, 4)
	a.Set(7.5, 1, 2, 3)
	if got := a.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major flat offset: ((1*3)+2)*4+3 = 23.
	if a.Data()[23] != 7.5 {
		t.Fatalf("flat layout wrong: %v", a.Data())
	}
}

func TestFromDataLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromData([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeView(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(99, 0, 1)
	if a.At(0, 1) != 99 {
		t.Fatal("Reshape must share storage")
	}
	c := a.Reshape(-1, 2)
	if c.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", c.Dim(0))
	}
}

func TestReshapeBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependence(t *testing.T) {
	a := FromData([]float64{1, 2}, 2)
	b := a.Clone()
	b.Set(5, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestRowView(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if len(r) != 3 || r[0] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[0] = 40
	if a.At(1, 0) != 40 {
		t.Fatal("Row must be a view")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromData([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := FromData([]float64{58, 64, 139, 154}, 2, 2)
	if !c.AllClose(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", c.Data(), want.Data())
	}
}

// naiveMatMul is the reference implementation for property testing.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	rng := xrand.New(1)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m, k, n := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		a := RandN(r, 1, m, k)
		b := RandN(r, 1, k, n)
		return MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	_ = rng
}

func TestMatMulParallelLarge(t *testing.T) {
	r := xrand.New(2)
	a := RandN(r, 1, 200, 96)
	b := RandN(r, 1, 96, 150)
	if 200*96*150 < matmulParallelThreshold {
		t.Fatal("shape no longer clears matmulParallelThreshold")
	}
	got := MatMul(a, b)
	want := naiveMatMul(a, b)
	if !got.AllClose(want, 1e-9) {
		t.Fatalf("parallel MatMul differs, max diff %v", got.MaxAbsDiff(want))
	}
}

func TestMatMulT1EqualsTransposedMatMul(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		k, m, n := 1+r.Intn(15), 1+r.Intn(15), 1+r.Intn(15)
		a := RandN(r, 1, k, m)
		b := RandN(r, 1, k, n)
		return MatMulT1(a, b).AllClose(MatMul(Transpose2D(a), b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulT1AddIntoRowBlocks: accumulating a product block of rows by
// block of rows gives the bits of the one-call product, and adding into a
// non-zero destination adds.
func TestMatMulT1AddIntoRowBlocks(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		k, m, n := 2+r.Intn(15), 1+r.Intn(15), 1+r.Intn(15)
		a := RandN(r, 1, k, m)
		b := RandN(r, 1, k, n)
		want := MatMulT1(a, b)
		cut := 1 + r.Intn(k-1)
		got := New(m, n)
		got.Fill(math.NaN())
		MatMulT1Into(got, a.Slice(0, cut), b.Slice(0, cut))
		MatMulT1AddInto(got, a.Slice(cut, k), b.Slice(cut, k))
		for i, v := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
				return false
			}
		}
		base := RandN(r, 1, m, n)
		sum := base.Clone()
		MatMulT1AddInto(sum, a, b)
		return sum.AllClose(Add(base, want), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulT2EqualsMatMulTransposed(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m, k, n := 1+r.Intn(15), 1+r.Intn(15), 1+r.Intn(15)
		a := RandN(r, 1, m, k)
		b := RandN(r, 1, n, k)
		return MatMulT2(a, b).AllClose(MatMul(a, Transpose2D(b)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := xrand.New(3)
	a := RandN(r, 1, 7, 5)
	if !Transpose2D(Transpose2D(a)).AllClose(a, 0) {
		t.Fatal("transpose twice must be identity")
	}
}

// TestTranspose2DMatchesLoop holds Transpose2D and Transpose2DInto, which
// run on the register-tile transpose, to the scalar double loop bit for bit
// — ±0, a NaN payload and ±Inf included — over shapes below, at and past
// its 4×8 blocks.
func TestTranspose2DMatchesLoop(t *testing.T) {
	r := xrand.New(5)
	for _, s := range [][2]int{{1, 1}, {3, 5}, {4, 8}, {7, 13}, {160, 8}} {
		m, n := s[0], s[1]
		a := RandN(r, 1, m, n)
		for i, v := range []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(-1)} {
			a.data[(i*7)%(m*n)] = v
		}
		want := make([]uint64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want[j*m+i] = math.Float64bits(a.data[i*n+j])
			}
		}
		dst := New(n, m)
		dst.Fill(7.5)
		Transpose2DInto(dst, a)
		for what, got := range map[string]*Tensor{"Transpose2DInto": dst, "Transpose2D": Transpose2D(a)} {
			for i, w := range want {
				if g := math.Float64bits(got.data[i]); g != w {
					t.Fatalf("%d×%d: %s element %d = %#x, the loop gives %#x", m, n, what, i, g, w)
				}
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// TestMatMulT1ValidatesBeforeWriting: a shape error panics in the name of
// the entry point that was called, with the shapes, and before dst is
// cleared.
func TestMatMulT1ValidatesBeforeWriting(t *testing.T) {
	for name, call := range map[string]func(dst, a, b *Tensor){
		"MatMulT1Into":    MatMulT1Into,
		"MatMulT1AddInto": MatMulT1AddInto,
	} {
		dst := New(3, 5)
		dst.Fill(2)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "tensor: "+name+" ") || !strings.Contains(msg, "[3 5]") || !strings.Contains(msg, "[4 3]") || !strings.Contains(msg, "[6 5]") {
					t.Errorf("%s: panic %q does not name the entry point and the shapes", name, msg)
				}
			}()
			call(dst, New(4, 3), New(6, 5))
		}()
		for _, v := range dst.Data() {
			if v != 2 {
				t.Fatalf("%s wrote dst before validating", name)
			}
		}
	}
}

func TestAddSubMul(t *testing.T) {
	a := FromData([]float64{1, 2, 3}, 3)
	b := FromData([]float64{4, 5, 6}, 3)
	if got := Add(a, b); !got.AllClose(FromData([]float64{5, 7, 9}, 3), 0) {
		t.Fatalf("Add = %v", got.Data())
	}
	if got := Sub(b, a); !got.AllClose(FromData([]float64{3, 3, 3}, 3), 0) {
		t.Fatalf("Sub = %v", got.Data())
	}
	if got := Mul(a, b); !got.AllClose(FromData([]float64{4, 10, 18}, 3), 0) {
		t.Fatalf("Mul = %v", got.Data())
	}
	if got := Scale(a, 2); !got.AllClose(FromData([]float64{2, 4, 6}, 3), 0) {
		t.Fatalf("Scale = %v", got.Data())
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromData([]float64{1, 2}, 2)
	AddInPlace(a, FromData([]float64{3, 4}, 2))
	if !a.AllClose(FromData([]float64{4, 6}, 2), 0) {
		t.Fatalf("AddInPlace = %v", a.Data())
	}
}

func TestSumMean(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4}, 4)
	if Sum(a) != 10 {
		t.Fatalf("Sum = %v", Sum(a))
	}
}
