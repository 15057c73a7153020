package tensor

import (
	"testing"
	"time"

	"repro/internal/xrand"
)

func TestViewSharesStorage(t *testing.T) {
	a := New(4, 3, 2)
	v := a.View(6, 3, 2) // second (3, 2) block
	v.Set(7, 1, 1)
	if got := a.At(1, 1, 1); got != 7 {
		t.Fatalf("write through view not visible: got %v", got)
	}
	a.Set(9, 1, 0, 0)
	if got := v.At(0, 0); got != 9 {
		t.Fatalf("write through base not visible in view: got %v", got)
	}
	if v.Size() != 6 || v.Rank() != 2 {
		t.Fatalf("view shape wrong: %v", v.Shape())
	}
}

func TestViewBounds(t *testing.T) {
	a := New(2, 3)
	for _, f := range []func(){
		func() { a.View(1, 2, 3) },
		func() { a.View(-1, 1) },
		func() { a.Slice(1, 3) },
		func() { a.Slice(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range view")
				}
			}()
			f()
		}()
	}
}

func TestSliceMatchesView(t *testing.T) {
	a := RandN(xrand.New(1), 1, 5, 4, 3)
	s := a.Slice(2, 4)
	v := a.View(2*12, 2, 4, 3)
	if !s.AllClose(v, 0) {
		t.Fatal("Slice and View disagree")
	}
	if &s.Data()[0] != &a.Data()[2*12] {
		t.Fatal("Slice copied instead of viewing")
	}
}

func TestGetPutRecycles(t *testing.T) {
	a := GetUninit(16, 16)
	ptr := &a.Data()[0]
	Put(a)
	b := GetUninit(200) // 200 ≤ 256 = cap bucket of 16×16: may or may not hit
	_ = b
	c := GetUninit(16, 16)
	// sync.Pool gives no hard guarantee, but single-goroutine put/get of the
	// same size class should round-trip; tolerate a miss by only checking
	// shape/zeroing invariants when it does hit.
	if &c.Data()[0] == ptr && c.Size() != 256 {
		t.Fatal("recycled buffer has wrong size")
	}
	Put(b)
	Put(c)

	z := Get(8, 8)
	for i, v := range z.Data() {
		if v != 0 {
			t.Fatalf("Get returned dirty buffer at %d: %v", i, v)
		}
	}
	Put(z)
}

func TestPutIgnoresNonPoolTensors(t *testing.T) {
	a := New(4, 4)
	Put(a) // no-op
	if a.Data() == nil {
		t.Fatal("Put mutated a non-pool tensor")
	}
	g := GetUninit(4, 4)
	v := g.View(0, 2, 2)
	Put(v) // views are never poolable
	if v.Size() != 4 {
		t.Fatal("Put mutated a view")
	}
	Put(g)
	Put(g) // second Put before any re-issuing Get: ignored
}

// TestNestedParallelOversubscribed pins the deadlock regression: when the
// requested width exceeds the pool's goroutine count, every pool worker can
// be blocked inside a nested ParallelRange at once; waiters must help drain
// the queue or the nest hangs forever.
func TestNestedParallelOversubscribed(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(64) // well past maxPoolGoroutines
	done := make(chan struct{})
	go func() {
		defer close(done)
		var total [64][64]int32
		ParallelFor(64, func(i int) {
			ParallelRange(64, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					total[i][j]++
				}
			})
		})
		for i := range total {
			for j := range total[i] {
				if total[i][j] != 1 {
					t.Errorf("cell (%d,%d) ran %d times", i, j, total[i][j])
					return
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested ParallelFor/ParallelRange deadlocked")
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 3, 8} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 5, 64, 1000} {
			hits := make([]int32, n)
			ParallelFor(n, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", w, n, i, h)
				}
			}
		}
	}
}

// shardedGemm returns operands of the three products whose MAC count
// clears matmulParallelThreshold, with row counts that leave a remainder
// past the last full tile row of both tile heights — so a pool wider than
// one really shards them: a (m,k), b (k,n), its transpose, and the (k,m)
// and (k,n) operands of aᵀ@b.
func shardedGemm(t *testing.T, seed uint64) (a, b, bt, a1, b1 *Tensor) {
	t.Helper()
	const m, k, n = 131, 197, 89
	if m*k*n < matmulParallelThreshold {
		t.Fatalf("%d×%d×%d no longer clears matmulParallelThreshold = %d", m, k, n, matmulParallelThreshold)
	}
	rng := xrand.New(seed)
	a, b = RandN(rng, 1, m, k), RandN(rng, 1, k, n)
	return a, b, Transpose2D(b), RandN(rng, 1, k, m), RandN(rng, 1, k, n)
}

// TestMatMulDeterministicAcrossWorkers pins the acceptance requirement that
// parallelism never reorders a single output element's accumulation: every
// product must be bit-identical at any worker count.
func TestMatMulDeterministicAcrossWorkers(t *testing.T) {
	defer SetWorkers(0)
	a, b, bt, a1, b1 := shardedGemm(t, 7)
	SetWorkers(1)
	want := MatMul(a, b)
	wantT2 := MatMulT2(a, bt)
	wantT1 := MatMulT1(a1, b1)
	wantT1Add := want.Clone()
	MatMulT1AddInto(wantT1Add, a1, b1)
	for _, w := range []int{2, 4, 9} {
		SetWorkers(w)
		if got := MatMul(a, b); got.MaxAbsDiff(want) != 0 {
			t.Fatalf("workers=%d: MatMul not bit-identical", w)
		}
		if got := MatMulT2(a, bt); got.MaxAbsDiff(wantT2) != 0 {
			t.Fatalf("workers=%d: MatMulT2 not bit-identical", w)
		}
		if got := MatMulT1(a1, b1); got.MaxAbsDiff(wantT1) != 0 {
			t.Fatalf("workers=%d: MatMulT1 not bit-identical", w)
		}
		got := want.Clone()
		if MatMulT1AddInto(got, a1, b1); got.MaxAbsDiff(wantT1Add) != 0 {
			t.Fatalf("workers=%d: MatMulT1AddInto not bit-identical", w)
		}
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := xrand.New(3)
	a := RandN(rng, 1, 33, 17)
	b := RandN(rng, 1, 17, 21)
	want := MatMul(a, b)
	dst := GetUninit(33, 21)
	MatMulInto(dst, a, b)
	if dst.MaxAbsDiff(want) != 0 {
		t.Fatal("MatMulInto differs from MatMul")
	}
	Put(dst)

	wantT1 := MatMulT1(a, a)
	d1 := GetUninit(17, 17)
	MatMulT1Into(d1, a, a)
	if d1.MaxAbsDiff(wantT1) != 0 {
		t.Fatal("MatMulT1Into differs from MatMulT1")
	}
	Put(d1)
}

func TestBatchedMatMulSmallAndLarge(t *testing.T) {
	rng := xrand.New(11)
	for _, dims := range [][4]int{{3, 4, 5, 6}, {8, 64, 96, 48}} {
		bs, m, k, n := dims[0], dims[1], dims[2], dims[3]
		a := RandN(rng, 1, bs, m, k)
		b := RandN(rng, 1, bs, k, n)
		got := BatchedMatMul(a, b)
		for i := 0; i < bs; i++ {
			ai := a.Slice(i, i+1).Reshape(m, k)
			bi := b.Slice(i, i+1).Reshape(k, n)
			want := MatMul(ai, bi)
			if got.Slice(i, i+1).Reshape(m, n).MaxAbsDiff(want) != 0 {
				t.Fatalf("batch %d differs", i)
			}
		}
	}
}
