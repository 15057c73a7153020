package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestScopedPoolMatchesDefault pins the scoped-pool contract: a kernel
// bound to a NewPool produces bit-identical results to the default-pool
// kernel at every width, including width 1 (which must never start a
// goroutine) and nil (which designates the default pool).
func TestScopedPoolMatchesDefault(t *testing.T) {
	a, b, bt, a1, b1 := shardedGemm(t, 21)
	m, n := a.Dim(0), b.Dim(1)
	want := MatMul(a, b)
	wantT2 := MatMulT2(a, bt)
	wantT1 := MatMulT1(a1, b1)
	wantT1Add := want.Clone()
	MatMulT1AddInto(wantT1Add, a1, b1)
	for _, w := range []int{1, 2, 4, 7} {
		p := NewPool(w)
		got := GetUninit(m, n)
		p.MatMulInto(got, a, b)
		if got.MaxAbsDiff(want) != 0 {
			t.Fatalf("width %d: pool MatMulInto not bit-identical", w)
		}
		p.MatMulT1AddInto(got, a1, b1)
		if got.MaxAbsDiff(wantT1Add) != 0 {
			t.Fatalf("width %d: pool MatMulT1AddInto not bit-identical", w)
		}
		p.MatMulT2Into(got, a, bt)
		if got.MaxAbsDiff(wantT2) != 0 {
			t.Fatalf("width %d: pool MatMulT2Into not bit-identical", w)
		}
		p.MatMulT1Into(got, a1, b1)
		if got.MaxAbsDiff(wantT1) != 0 {
			t.Fatalf("width %d: pool MatMulT1Into not bit-identical", w)
		}
		Put(got)
		p.Close()
	}
	var nilPool *Pool
	got := GetUninit(m, n)
	nilPool.MatMulInto(got, a, b)
	if got.MaxAbsDiff(want) != 0 {
		t.Fatal("nil pool MatMulInto not bit-identical to default")
	}
	nilPool.MatMulT1Into(got, a1, b1)
	if got.MaxAbsDiff(wantT1) != 0 {
		t.Fatal("nil pool MatMulT1Into not bit-identical to default")
	}
	Put(got)
}

// TestScopedPoolWidthCap checks that a scoped pool never runs more than
// its fixed width concurrently, regardless of the machine or the global
// Workers() setting.
func TestScopedPoolWidthCap(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(16)
	p := NewPool(2)
	defer p.Close()
	var cur, peak atomic.Int64
	var mu sync.Mutex
	p.ParallelFor(64, func(i int) {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		for j := 0; j < 2000; j++ {
			_ = j * j
		}
		cur.Add(-1)
	})
	if got := peak.Load(); got > 2 {
		t.Fatalf("pool of width 2 ran %d iterations concurrently", got)
	}
}

// TestScopedPoolNested checks that nested parallel regions on one scoped
// pool complete (the inline-fallback + help-drain discipline of the
// default pool applies per pool).
func TestScopedPoolNested(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var total [16][16]int32
	p.ParallelFor(16, func(i int) {
		p.ParallelRange(16, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				atomic.AddInt32(&total[i][j], 1)
			}
		})
	})
	for i := range total {
		for j := range total[i] {
			if total[i][j] != 1 {
				t.Fatalf("cell (%d,%d) ran %d times", i, j, total[i][j])
			}
		}
	}
}

// TestScopedPoolCloseDegrades checks that parallel calls after Close run
// inline rather than hanging or crashing (documented misuse tolerance).
func TestScopedPoolCloseDegrades(t *testing.T) {
	p := NewPool(4)
	p.ParallelFor(8, func(int) {})
	p.Close()
	hits := make([]int32, 8)
	p.ParallelFor(8, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times after Close", i, h)
		}
	}
}

// TestSerialFastPathCoversAllIndices pins the tiny-n serial path: sizes at
// and below the cutoff still visit every index exactly once (and do so on
// the calling goroutine, though only coverage is asserted here).
func TestSerialFastPathCoversAllIndices(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(8)
	for n := 0; n <= serialCutoff+2; n++ {
		hits := make([]int32, n)
		ParallelFor(n, func(i int) { hits[i]++ })
		ranges := make([]int32, n)
		ParallelRange(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ranges[i]++
			}
		})
		for i := 0; i < n; i++ {
			if hits[i] != 1 || ranges[i] != 1 {
				t.Fatalf("n=%d index %d: for=%d range=%d", n, i, hits[i], ranges[i])
			}
		}
	}
}

// TestPutViewGuard is the free-list aliasing regression: Put on a view of
// a pooled tensor must never capture the parent's backing array, and the
// parent must remain Put-able exactly once afterwards.
func TestPutViewGuard(t *testing.T) {
	parent := GetUninit(32)
	parent.Fill(3)
	for _, v := range []*Tensor{
		parent.View(0, 32), // full-extent view: cap is even pool-shaped
		parent.Slice(0, 16),
		parent.Reshape(4, 8),
	} {
		Put(v)
	}
	// If any Put above leaked the backing array to the free-list, this Get
	// of the same size class would alias the still-live parent.
	fresh := GetUninit(32)
	if &fresh.Data()[0] == &parent.Data()[0] {
		t.Fatal("Put on a view recycled the parent's live backing array")
	}
	fresh.Fill(9)
	for i, x := range parent.Data() {
		if x != 3 {
			t.Fatalf("parent corrupted at %d: %v", i, x)
		}
	}
	Put(fresh)
	Put(parent) // single legitimate Put still works
}

// TestPutDebugToleratesPlainTensors: a defensive Put of a New/FromData
// tensor or nil stays a silent no-op, because callers legitimately release
// tensors of unknown origin — and the pool must not adopt their storage.
func TestPutDebugToleratesPlainTensors(t *testing.T) {
	a := New(4, 4)
	f := FromData([]float64{1, 2}, 2)
	Put(a)
	Put(f)
	Put(nil)
	if a.Size() != 16 || f.Size() != 2 || f.Data()[1] != 2 {
		t.Fatal("Put mutated a plain tensor")
	}
	g := GetUninit(4, 4)
	defer Put(g)
	if &g.Data()[0] == &a.Data()[0] {
		t.Fatal("Put adopted a New tensor's storage into the pool")
	}
}
