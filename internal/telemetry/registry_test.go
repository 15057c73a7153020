package telemetry

import (
	"encoding/json"
	"expvar"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steps")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("steps") != c {
		t.Fatal("second lookup returned a different counter")
	}

	g := r.Gauge("overlap")
	g.Set(1.75)
	if got := g.Value(); got != 1.75 {
		t.Fatalf("gauge = %v, want 1.75", got)
	}

	h := r.Histogram("lat", []float64{10, 1, 5}) // unsorted on purpose
	for _, v := range []float64{0.5, 1, 3, 5, 7, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("hist count = %d, want 6", got)
	}
	if got, want := h.Sum(), 116.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("hist sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["lat"]
	// Buckets: <=1 (0.5, 1), <=5 (3, 5), <=10 (7), overflow (100).
	want := []int64{2, 2, 1, 1}
	for i, n := range want {
		if hs.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, hs.Counts[i], n, hs.Counts)
		}
	}
	if snap.Counters["steps"] != 5 || snap.Gauges["overlap"] != 1.75 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
}

// TestRegistryConcurrent hammers one instrument set from many goroutines
// under -race, with concurrent snapshots.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	g := r.Gauge("g")
	h := r.Histogram("h", StepMSBuckets)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 100))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*per)
	}
}

// TestInstrumentsZeroAlloc is the hot-path contract: once handles are
// resolved, Add/Set/Observe allocate nothing.
func TestInstrumentsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", StepMSBuckets)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(4.2)
		h.Observe(17)
	}); n != 0 {
		t.Fatalf("instrument ops allocated %v times per run, want 0", n)
	}
}

// TestRegistrySinkZeroAlloc: OnStep with pre-resolved handles must not
// allocate either — it runs once per training step on the stepping
// goroutine.
func TestRegistrySinkZeroAlloc(t *testing.T) {
	r := NewRegistry()
	s := NewRegistrySink(r)
	m := &StepMetrics{
		WallMS: 20, ForwardMS: 3, BackwardMS: 5, TailMS: 1,
		Retries: 2, Faults: 1,
		OverlapRatio: 1.5, ExpertEntropy: 0.9, ExpertImbalance: 1.3,
		ExpertTokens: [][]int{{10, 20, 30, 40}},
	}
	if n := testing.AllocsPerRun(100, func() { s.OnStep(m) }); n != 0 {
		t.Fatalf("RegistrySink.OnStep allocated %v times per run, want 0", n)
	}
	if got := r.Counter("step_total").Value(); got < 100 {
		t.Fatalf("steps counter = %d, want >= 100", got)
	}
	// The wall gauge and histogram observe the measured wall, not the sum
	// of the in-plan parts.
	if got := r.Gauge("step_wall_ms").Value(); got != 20 {
		t.Fatalf("step_wall_ms = %v, want the measured 20", got)
	}
}

func TestRegistryExpvarString(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Gauge("b").Set(0.5)
	var snap Snapshot
	v := expvar.Func(func() any { return r.Snapshot() }) // how a program publishes it
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("the published snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["a"] != 2 || snap.Gauges["b"] != 0.5 {
		t.Fatalf("round-tripped snapshot mismatch: %+v", snap)
	}
}

func TestLoadStats(t *testing.T) {
	// Uniform load: entropy 1, imbalance 1.
	e, im := LoadStats([][]int{{5, 5, 5, 5}})
	if math.Abs(e-1) > 1e-12 || math.Abs(im-1) > 1e-12 {
		t.Fatalf("uniform: entropy=%v imbalance=%v, want 1, 1", e, im)
	}
	// Fully skewed: entropy 0, imbalance = n.
	e, im = LoadStats([][]int{{12, 0, 0, 0}})
	if math.Abs(e) > 1e-12 || math.Abs(im-4) > 1e-12 {
		t.Fatalf("skewed: entropy=%v imbalance=%v, want 0, 4", e, im)
	}
	// Skew must rank below uniform, above degenerate.
	mid, _ := LoadStats([][]int{{8, 2, 1, 1}})
	if !(mid > 0 && mid < 1) {
		t.Fatalf("mid entropy = %v, want in (0,1)", mid)
	}
	// Empty and all-zero distributions are defined as (0, 0).
	if e, im = LoadStats(nil); e != 0 || im != 0 {
		t.Fatalf("empty: got (%v, %v)", e, im)
	}
	if e, im = LoadStats([][]int{{0, 0}}); e != 0 || im != 0 {
		t.Fatalf("zeros: got (%v, %v)", e, im)
	}
	// Single expert: entropy defined as 1 (trivially balanced).
	if e, im = LoadStats([][]int{{7}}); e != 1 || im != 1 {
		t.Fatalf("single: got (%v, %v)", e, im)
	}
}

func TestStepMetricsFinalize(t *testing.T) {
	m := &StepMetrics{WallMS: 25, ForwardMS: 4, BackwardMS: 6, TailMS: 2}
	m.SerialMS = 15
	m.StreamBusyMS = map[string]float64{"compute:0": 10, "inter": 5}
	m.AddExpertLoad([]int{3, 1})
	m.Finalize()
	if math.Abs(m.OverlapRatio-1.5) > 1e-12 {
		t.Fatalf("overlap = %v, want 1.5", m.OverlapRatio)
	}
	if math.Abs(m.StreamBusyFrac["compute:0"]-1.0) > 1e-12 {
		t.Fatalf("busy frac = %v, want 1.0", m.StreamBusyFrac["compute:0"])
	}
	if m.ExpertImbalance <= 1 {
		t.Fatalf("imbalance = %v, want > 1", m.ExpertImbalance)
	}
}
