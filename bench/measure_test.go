package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// The tail percentile reported must leave at least ten samples beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {19, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	st := summarize(seq(100))
	if st.HiPct != 90 || st.Hi != 90 || st.N != 100 || st.Min != 1 || st.P50 != 50.5 {
		t.Errorf("summarize(1..100) = %+v", st)
	}
	if st := summarize(seq(12)); st.HiPct != 0 || st.Hi != st.P50 {
		t.Errorf("12 samples must not report a tail percentile: %+v", st)
	}
}

func TestMAD(t *testing.T) {
	// median 3, deviations {2,1,0,1,97} -> MAD 1: one outlier moves nothing.
	if st := summarize([]float64{1, 2, 3, 4, 100}); st.P50 != 3 || st.MAD != 1 {
		t.Errorf("got %+v, want p50 3 mad 1", st)
	}
	if st := summarize(nil); st.N != 0 {
		t.Errorf("empty sample set: %+v", st)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1})
	if q1 != 0 || q3 != 6 {
		t.Errorf("quartiles([1,5]) = %v, %v, want 0, 6", q1, q3)
	}
	if got, want := spread(seq(10)), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if spread([]float64{7}) != 0 {
		t.Error("one run has no spread")
	}
}

func TestClassify(t *testing.T) {
	tight := func(center float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = center * (1 + 0.001*float64(i-5))
		}
		return out
	}
	wide := []float64{60, 80, 90, 100, 100, 110, 120, 130, 140, 170}
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"same", tight(100), tight(100), "lower", 0.08, verdictOK},
		{"within bound", tight(100), tight(105), "lower", 0.08, verdictOK},
		{"slower beyond bound", tight(100), tight(110), "lower", 0.08, verdictRegressed},
		{"faster", tight(100), tight(50), "lower", 0.08, verdictOK},
		{"throughput fell", tight(100), tight(90), "higher", 0.08, verdictRegressed},
		{"throughput rose", tight(100), tight(150), "higher", 0.08, verdictOK},
		{"noisy parent", wide, tight(100), "lower", 0.08, verdictUnresolved},
		{"noisy change hides a regression", tight(100), wide, "lower", 0.08, verdictUnresolved},
	} {
		if got, _, _ := classify(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, worse, _ := classify(tight(100), tight(110), "lower", 0.08); math.Abs(worse-0.10) > 1e-9 {
		t.Errorf("worse = %v, want 0.10 of the old median", worse)
	}
}

func TestSamplingCountsAndHooks(t *testing.T) {
	calls, befores, afters := 0, 0, 0
	out, err := sampling{
		warmup: 2, n: 5,
		before: func(int) { befores++ },
		after:  func(int, float64) error { afters++; return nil },
	}.run(func() error { calls++; return nil })
	if err != nil || len(out) != 5 || calls != 7 || befores != 7 || afters != 5 {
		t.Errorf("samples %d calls %d befores %d afters %d err %v", len(out), calls, befores, afters, err)
	}
}
