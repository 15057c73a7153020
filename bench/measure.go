package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// sampling is the benchmark's one timing primitive: every timed run and
// every probe goes through it, so all numbers share one policy. It runs
// fn warmup times untimed, then takes samples: before each one it forces a
// garbage collection outside the timed window (a collection started by the
// previous sample's garbage would otherwise land in this one), times fn,
// and runs the after hook, again outside the window.
type sampling struct {
	warmup int
	n      int         // samples to take
	before func(i int) // optional set-up of sample i
	after  func(i int, ms float64) error
}

// run returns one wall time in milliseconds per sample. An error from fn
// or a hook stops the run; the samples taken so far are returned with it.
func (s sampling) run(fn func() error) ([]float64, error) {
	for i := 0; i < s.warmup; i++ {
		if s.before != nil {
			s.before(i - s.warmup)
		}
		if err := fn(); err != nil {
			return nil, err
		}
	}
	out := make([]float64, 0, s.n)
	for i := 0; i < s.n; i++ {
		if s.before != nil {
			s.before(i)
		}
		runtime.GC()
		t0 := time.Now()
		err := fn()
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return out, err
		}
		out = append(out, ms)
		if s.after != nil {
			if err := s.after(i, ms); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// stats summarizes one sample set.
type stats struct {
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	HiPct float64 `json:"hi_pct"` // the tail percentile reported in Hi; 0 when n is too small for any
	Hi    float64 `json:"hi"`
	MAD   float64 `json:"mad"` // median absolute deviation from P50
}

// tailPercentiles are the candidates for stats.Hi, ascending.
var tailPercentiles = []float64{75, 90, 95, 99, 99.9}

// tailPercentile returns the highest candidate percentile that still has
// at least ten of n samples beyond it, or 0 when none has: a percentile
// resting on fewer samples is the value of a handful of outliers.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// rank is the nearest-rank position (1-based) of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // the slack absorbs 99.9*n/100 landing a hair above an integer
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

func summarize(samples []float64) stats {
	if len(samples) == 0 {
		return stats{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	st := stats{N: len(s), Min: s[0], P50: median(s)}
	dev := make([]float64, len(s))
	for i, v := range s {
		dev[i] = math.Abs(v - st.P50)
	}
	st.MAD = median(dev)
	st.HiPct = tailPercentile(len(s))
	st.Hi = st.P50
	if st.HiPct > 0 {
		st.Hi = percentile(s, st.HiPct)
	}
	return st
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (exclusive method), so the spread this
// package computes is the one the benchmark contract is judged by.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise band of one metric over a set of runs. Fewer than two
// runs have no spread.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	med := median(v)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// Verdicts of comparing one metric on one workload between two sets of runs.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// classify judges new against old for a metric whose better direction is
// "lower" or "higher". worse is the share of the old median by which the
// new median is worse (negative when it improved). A spread wider than the
// bound on either side means the sets cannot resolve a change of the size
// the bound forbids, so the verdict is unresolved, never ok.
func classify(old, new []float64, better string, bound float64) (verdict string, worse, widest float64) {
	mo, mn := median(old), median(new)
	if mo != 0 {
		worse = (mn - mo) / math.Abs(mo)
		if better == "higher" {
			worse = -worse
		}
	}
	widest = math.Max(spread(old), spread(new))
	switch {
	case widest > bound:
		return verdictUnresolved, worse, widest
	case worse > bound:
		return verdictRegressed, worse, widest
	}
	return verdictOK, worse, widest
}
