package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// The two streams should not be trivially equal.
	equal := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("parent and child streams agree too often: %d/64", equal)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(2024)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestRange(t *testing.T) {
	r := New(8)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range(-3,5) = %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// TestStateRoundTrip: State/SetState capture the generator completely —
// a restored generator replays the identical stream, including one whose
// gamma came from Split.
func TestStateRoundTrip(t *testing.T) {
	r := New(42).Split()
	r.Uint64()
	s, g := r.State()
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	fresh := New(0)
	fresh.SetState(s, g)
	for i, w := range want {
		if got := fresh.Uint64(); got != w {
			t.Fatalf("draw %d after restore = %#x, want %#x", i, got, w)
		}
	}
}
