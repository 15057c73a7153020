package tensor

import (
	"math"
	"runtime"
	"strings"
	"sync/atomic"
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
	c := GetUninit(15, 17) // 255 elements: the class of 16×16
	if &c.Data()[0] != ptr {
		t.Fatal("a Get of the class just Put did not recycle its buffer")
	}
	if c.Size() != 255 || c.Dim(0) != 15 || c.Dim(1) != 17 {
		t.Fatalf("recycled buffer has shape %v, want [15 17]", c.Shape())
	}
	Put(c)

	z := Get(8, 8)
	for i, v := range z.Data() {
		if v != 0 {
			t.Fatalf("Get returned dirty buffer at %d: %v", i, v)
		}
	}
	Put(z)
}

// TestPutGetAcrossGoroutines: a buffer one goroutine Puts is the next Get
// of its class on another goroutine running at the same time, on another
// processor, with no allocation — the free-list is one list, not one per
// processor, so a task that lands on a processor where no buffer was Put
// still finds one.
func TestPutGetAcrossGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n = 3 << 10
	for round := range 10 {
		runtime.GC() // a cache the collector empties starts the round empty
		runtime.GC()
		var running, put, got atomic.Int32
		var ptr *float64
		done := make(chan *float64)
		spin := func(v *atomic.Int32, want int32) {
			for v.Load() < want {
			}
		}
		go func() { // holds its processor until the other goroutine's Get is done
			running.Add(1)
			spin(&running, 2)
			b := GetUninit(n)
			ptr = &b.Data()[0]
			Put(b)
			put.Store(1)
			spin(&got, 1)
		}()
		go func() {
			running.Add(1)
			spin(&running, 2)
			spin(&put, 1)
			b := GetUninit(n)
			got.Store(1)
			done <- &b.Data()[0]
			Put(b)
		}()
		if p := <-done; p != ptr {
			t.Fatalf("round %d: a Get on one goroutine missed the buffer another goroutine had just Put", round)
		}
	}
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(64)) // well past maxPoolGoroutines
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

// TestParallelRangeAllocatesNothing: a warm ParallelRange or ParallelFor
// with a prebuilt body allocates nothing, on a scoped pool and on the
// default one, fanning out and running serially, and still covers every
// index once.
func TestParallelRangeAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pool := NewPool(2)
	defer pool.Close()
	var hits [64]atomic.Int32
	rangeFn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	}
	forFn := func(i int) { hits[i].Add(1) }
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"scoped range", func() { pool.ParallelRange(64, rangeFn) }},
		{"scoped for", func() { pool.ParallelFor(64, forFn) }},
		{"default range", func() { ParallelRange(64, rangeFn) }},
		{"default for", func() { ParallelFor(64, forFn) }},
		{"serial range", func() { ParallelRange(2, rangeFn) }},
		{"serial for", func() { ParallelFor(2, forFn) }},
	} {
		calls := 0
		if allocs := testing.AllocsPerRun(100, func() { tc.call(); calls++ }); allocs != 0 {
			t.Errorf("%s: %v allocations per warm call, want 0", tc.name, allocs)
		}
		n := 64
		if strings.HasPrefix(tc.name, "serial") {
			n = 2
		}
		for i := range hits {
			want := int32(0)
			if i < n {
				want = int32(calls)
			}
			if got := hits[i].Swap(0); got != want {
				t.Fatalf("%s: index %d ran %d times in %d calls, want %d", tc.name, i, got, calls, want)
			}
		}
	}
}

// TestReserveScratch: once ReserveScratch has readied the free-list for k
// products, 3·k buffers up to the largest size asked for so far — of its
// class and of smaller ones — are taken and returned without an
// allocation, the first time as every time after.
func TestReserveScratch(t *testing.T) {
	const k, n = 3, 4096
	Put(GetUninit(n))
	ReserveScratch(k)
	held := make([]*Tensor, 3*k)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range 3 {
		for i := range held {
			held[i] = GetUninit(n>>(i%3) - i)
		}
		for _, s := range held {
			Put(s)
		}
	}
	runtime.ReadMemStats(&m1)
	if d := m1.Mallocs - m0.Mallocs; d != 0 {
		t.Fatalf("%d allocations taking %d buffers after ReserveScratch(%d), want 0", d, 3*k, k)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(w)
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
	a, b, bt = RandN(rng, 1, m, k), RandN(rng, 1, k, n), New(n, k)
	Transpose2DInto(bt, b)
	return a, b, bt, RandN(rng, 1, k, m), RandN(rng, 1, k, n)
}

// TestMatMulDeterministicAcrossWorkers pins the acceptance requirement that
// parallelism never reorders a single output element's accumulation: every
// product must be bit-identical at any worker count.
func TestMatMulDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, b, bt, a1, b1 := shardedGemm(t, 7)
	want := New(a.Dim(0), b.Dim(1))
	MatMulInto(want, a, b)
	wantT2 := MatMulT2(a, bt)
	wantT1 := MatMulT1(a1, b1)
	wantT1Add := want.Clone()
	MatMulT1AddInto(wantT1Add, a1, b1)
	for _, w := range []int{2, 4, 9} {
		runtime.GOMAXPROCS(w)
		got := New(a.Dim(0), b.Dim(1))
		if MatMulInto(got, a, b); !got.SameBits(want) {
			t.Fatalf("workers=%d: MatMulInto not bit-identical", w)
		}
		if got := MatMulT2(a, bt); !got.SameBits(wantT2) {
			t.Fatalf("workers=%d: MatMulT2 not bit-identical", w)
		}
		if got := MatMulT1(a1, b1); !got.SameBits(wantT1) {
			t.Fatalf("workers=%d: MatMulT1 not bit-identical", w)
		}
		got = want.Clone()
		if MatMulT1AddInto(got, a1, b1); !got.SameBits(wantT1Add) {
			t.Fatalf("workers=%d: MatMulT1AddInto not bit-identical", w)
		}
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := xrand.New(3)
	a := RandN(rng, 1, 33, 17)
	b := RandN(rng, 1, 17, 21)
	want := New(33, 21)
	MatMulInto(want, a, b)
	dst := GetUninit(33, 21)
	dst.Fill(math.NaN())
	MatMulInto(dst, a, b)
	if !dst.SameBits(want) {
		t.Fatal("MatMulInto into a NaN-filled pooled dst differs from MatMulInto into a zeroed one")
	}
	Put(dst)

	wantT1 := MatMulT1(a, a)
	d1 := GetUninit(17, 17)
	MatMulT1Into(d1, a, a)
	if !d1.SameBits(wantT1) {
		t.Fatal("MatMulT1Into differs from MatMulT1")
	}
	Put(d1)
}
