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
	c := New(2, 2)
	MatMulInto(c, a, b)
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
		m, k, n := 1+int(r.Uint64()%20), 1+int(r.Uint64()%20), 1+int(r.Uint64()%20)
		a := RandN(r, 1, m, k)
		b := RandN(r, 1, k, n)
		got := New(m, n)
		MatMulInto(got, a, b)
		return got.AllClose(naiveMatMul(a, b), 1e-9)
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
	got := New(200, 150)
	MatMulInto(got, a, b)
	want := naiveMatMul(a, b)
	if !got.AllClose(want, 1e-9) {
		t.Fatalf("parallel MatMul differs, max diff %v", got.MaxAbsDiff(want))
	}
}

func TestMatMulT1EqualsTransposedMatMul(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		k, m, n := 1+int(r.Uint64()%15), 1+int(r.Uint64()%15), 1+int(r.Uint64()%15)
		a := RandN(r, 1, k, m)
		b := RandN(r, 1, k, n)
		at := New(m, k)
		Transpose2DInto(at, a)
		return MatMulT1(a, b).AllClose(naiveMatMul(at, b), 1e-9)
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
		k, m, n := 2+int(r.Uint64()%15), 1+int(r.Uint64()%15), 1+int(r.Uint64()%15)
		a := RandN(r, 1, k, m)
		b := RandN(r, 1, k, n)
		want := MatMulT1(a, b)
		cut := 1 + int(r.Uint64()%uint64(k-1))
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
		AddInPlace(base, want)
		return sum.AllClose(base, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulT2EqualsMatMulTransposed(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m, k, n := 1+int(r.Uint64()%15), 1+int(r.Uint64()%15), 1+int(r.Uint64()%15)
		a := RandN(r, 1, m, k)
		b := RandN(r, 1, n, k)
		bt := New(k, n)
		Transpose2DInto(bt, b)
		return MatMulT2(a, b).AllClose(naiveMatMul(a, bt), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := xrand.New(3)
	a := RandN(r, 1, 7, 5)
	at, att := New(5, 7), New(7, 5)
	Transpose2DInto(at, a)
	Transpose2DInto(att, at)
	if !att.SameBits(a) {
		t.Fatal("transpose twice must be identity")
	}
}

// TestTranspose2DMatchesLoop holds Transpose2DInto, which runs on the
// register-tile transpose, to the scalar double loop bit for bit
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
		for i, w := range want {
			if g := math.Float64bits(dst.data[i]); g != w {
				t.Fatalf("%d×%d: element %d = %#x, the loop gives %#x", m, n, i, g, w)
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
	MatMulInto(New(2, 2), New(2, 3), New(4, 2))
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

// TestAddSubMul: the element-wise forms on small exact values — AddRow,
// AddScaledRow by −1 (a difference), Mul and ScaleRow.
func TestAddSubMul(t *testing.T) {
	a := FromData([]float64{1, 2, 3}, 3)
	b := FromData([]float64{4, 5, 6}, 3)
	sum, diff, scaled := a.Clone(), b.Clone(), New(3)
	AddRow(sum.Data(), b.Data())
	AddScaledRow(diff.Data(), a.Data(), -1)
	ScaleRow(scaled.Data(), a.Data(), 2)
	for name, c := range map[string]struct{ got, want *Tensor }{
		"AddRow":       {sum, FromData([]float64{5, 7, 9}, 3)},
		"AddScaledRow": {diff, FromData([]float64{3, 3, 3}, 3)},
		"Mul":          {Mul(a, b), FromData([]float64{4, 10, 18}, 3)},
		"ScaleRow":     {scaled, FromData([]float64{2, 4, 6}, 3)},
	} {
		if !c.got.SameBits(c.want) {
			t.Errorf("%s = %v, want %v", name, c.got.Data(), c.want.Data())
		}
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromData([]float64{1, 2}, 2)
	AddInPlace(a, FromData([]float64{3, 4}, 2))
	if !a.AllClose(FromData([]float64{4, 6}, 2), 0) {
		t.Fatalf("AddInPlace = %v", a.Data())
	}
}

// TestSameBitsSeesWhatMaxAbsDiffCannot: SameBits tells NaN payloads and
// +0/−0 apart, MaxAbsDiff returns NaN on a NaN difference (so a tolerance
// check fails on it), and AllClose rejects a NaN.
func TestSameBitsSeesWhatMaxAbsDiffCannot(t *testing.T) {
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff8000000000002)
	cases := []struct {
		name     string
		a, b     float64
		sameBits bool
		diffNaN  bool
	}{
		{"equal", 1.5, 1.5, true, false},
		{"one ulp", 1, math.Nextafter(1, 2), false, false},
		{"+0 and -0", 0, math.Copysign(0, -1), false, false},
		{"same NaN", nanA, nanA, true, true},
		{"NaN payloads", nanA, nanB, false, true},
		{"NaN and finite", nanA, 0, false, true},
	}
	for _, c := range cases {
		a, b := FromData([]float64{2, c.a}, 2), FromData([]float64{2, c.b}, 2)
		if got := a.SameBits(b); got != c.sameBits {
			t.Errorf("%s: SameBits = %v, want %v", c.name, got, c.sameBits)
		}
		if d := a.MaxAbsDiff(b); math.IsNaN(d) != c.diffNaN {
			t.Errorf("%s: MaxAbsDiff = %v, NaN wanted: %v", c.name, d, c.diffNaN)
		}
		if c.diffNaN && a.AllClose(b, 1) {
			t.Errorf("%s: AllClose passes a NaN difference", c.name)
		}
	}
	if New(2, 3).SameBits(New(3, 2)) {
		t.Error("SameBits ignores the shape")
	}
}

// At, Set and AllClose are the tests' element access and tolerance check;
// the program reads tensors by row and compares them bit for bit.

// offset converts a multi-index to a flat offset.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the multi-index idx.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the multi-index idx.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// AllClose reports whether every element of t is within tol of the
// corresponding element of o. A NaN difference is never within tol.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if !(math.Abs(t.data[i]-o.data[i]) <= tol) {
			return false
		}
	}
	return true
}
