package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer instrument. All methods
// are safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n may be any non-negative amount;
// negative deltas are ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value instrument. All methods are safe for concurrent
// use and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the most recently set value (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution instrument: bounds are the
// inclusive upper edges of the first len(bounds) buckets, with one
// implicit overflow bucket above the last bound. Observe is lock-free and
// allocation-free; bucket counts and the running sum are each atomically
// consistent (a concurrent Snapshot may see a count without its sum
// contribution — acceptable for monitoring, never corrupting).
type Histogram struct {
	bounds []float64 // sorted inclusive upper edges
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Registry is a named collection of instruments. Lookups take a mutex
// (call them at setup time, hold the returned handles on the hot path);
// the instruments themselves are lock-free.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper edges on first use (bounds are sorted defensively; later
// calls for an existing name ignore bounds). Empty bounds make a
// single-bucket histogram that still tracks count and sum.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// HistogramSnap is one histogram's point-in-time state: Counts[i] pairs
// with Bounds[i] for i < len(Bounds); the final entry is the overflow
// bucket.
type HistogramSnap struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every instrument, sorted map keys,
// and a JSON document: expvar.Publish("fsmoe", expvar.Func(func() any {
// return registry.Snapshot() })) serves the live registry on /debug/vars.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnap `json:"histograms,omitempty"`
}

// Snapshot copies the current state of every instrument. It may run
// concurrently with writers; each instrument is read atomically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.ctrs) > 0 {
		s.Counters = make(map[string]int64, len(r.ctrs))
		for name, c := range r.ctrs {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnap, len(r.hists))
		for name, h := range r.hists {
			counts := make([]int64, len(h.counts))
			for i := range h.counts {
				counts[i] = h.counts[i].Load()
			}
			s.Histograms[name] = HistogramSnap{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: counts,
				Count:  h.Count(),
				Sum:    h.Sum(),
			}
		}
	}
	return s
}

// StepMSBuckets is the default step-latency histogram edge set (ms).
var StepMSBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// LoadBuckets is the default per-expert token-load histogram edge set.
var LoadBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// RegistrySink records every StepMetrics into a Registry: step/retry/fault
// counters, last-step gauges (overlap ratio, entropy, imbalance, tail),
// a step-latency histogram and the FlexMoE per-expert load histogram
// (one Observe per expert per step). Handles are resolved once at
// construction, so OnStep itself is allocation-free.
type RegistrySink struct {
	steps, retries, faults, stragglers, skips, degraded, dropped *Counter
	overlap, entropy, imbalance, tail, wall                      *Gauge
	stepMS, load                                                 *Histogram
}

// NewRegistrySink wires a sink to r under the "step_"/"expert_" name
// prefix convention.
func NewRegistrySink(r *Registry) *RegistrySink {
	return &RegistrySink{
		steps:      r.Counter("step_total"),
		retries:    r.Counter("step_retries_total"),
		faults:     r.Counter("step_faults_total"),
		stragglers: r.Counter("step_stragglers_total"),
		skips:      r.Counter("step_skips_total"),
		degraded:   r.Counter("step_degraded_passes_total"),
		dropped:    r.Counter("step_dropped_tokens_total"),
		overlap:    r.Gauge("step_overlap_ratio"),
		entropy:    r.Gauge("expert_load_entropy"),
		imbalance:  r.Gauge("expert_load_imbalance"),
		tail:       r.Gauge("step_tail_ms"),
		wall:       r.Gauge("step_wall_ms"),
		stepMS:     r.Histogram("step_ms", StepMSBuckets),
		load:       r.Histogram("expert_load_tokens", LoadBuckets),
	}
}

// OnStep implements Sink.
func (s *RegistrySink) OnStep(m *StepMetrics) {
	s.steps.Inc()
	s.retries.Add(int64(m.Retries))
	s.faults.Add(int64(m.Faults))
	s.stragglers.Add(int64(m.Stragglers))
	s.skips.Add(int64(m.Skips))
	s.degraded.Add(int64(m.DegradedPasses))
	s.dropped.Add(int64(m.DroppedTokens))
	s.overlap.Set(m.OverlapRatio)
	s.entropy.Set(m.ExpertEntropy)
	s.imbalance.Set(m.ExpertImbalance)
	s.tail.Set(m.TailMS)
	s.wall.Set(m.WallMS)
	s.stepMS.Observe(m.WallMS)
	for _, layer := range m.ExpertTokens {
		for _, n := range layer {
			s.load.Observe(float64(n))
		}
	}
}
