package main

import (
	"fmt"
	"io"

	"repro/internal/report"
)

// values collects one metric's value from every run of a workload in doc.
// Timed and traced runs report disjoint metrics, so the name alone selects
// the run kind.
func (doc *resultDoc) values(workload, name string) []float64 {
	var out []float64
	for _, r := range doc.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles judges every end-to-end metric on every workload of the
// new result file against the old one, one row each: both medians, the
// ratio with its base, the bound and the verdict. The timed run's other
// numbers and the per-layer metrics have no bound and are listed without
// one. It reports whether any row regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	tb := report.NewTable(fmt.Sprintf("%s (old) vs %s (new): medians over each file's runs", oldPath, newPath),
		"metric", "workload", "unit", "old", "new", "new/old", "worse by", "spread", "bound", "verdict")
	row := func(wl workload, s metricSpec, gated bool) {
		o, n := old.values(wl.name, s.Name), cur.values(wl.name, s.Name)
		if len(o) == 0 || len(n) == 0 {
			return
		}
		bound, verdict := "", ""
		v, worse, widest := classify(o, n, s.Better, s.Bound)
		if gated {
			bound, verdict = fmt.Sprintf("%.0f%%", 100*s.Bound), v
			regressed = regressed || verdict == verdictRegressed
		}
		mo, mn := median(o), median(n)
		ratio := "n/a"
		if mo != 0 {
			ratio = fmt.Sprintf("%.3f of %.5g", mn/mo, mo)
		}
		tb.AddRow(s.Name, wl.name, s.Unit, fmt.Sprintf("%.5g (n=%d)", mo, len(o)), fmt.Sprintf("%.5g (n=%d)", mn, len(n)),
			ratio, fmt.Sprintf("%+.1f%%", 100*worse), fmt.Sprintf("%.1f%%", 100*widest), bound, verdict)
	}
	for _, s := range endToEnd {
		for _, wl := range workloads {
			row(wl, s, true)
		}
	}
	for _, s := range append(append([]metricSpec(nil), timedInfo...), perLayer...) {
		for _, wl := range workloads {
			row(wl, s, false)
		}
	}
	_, err = fmt.Fprint(w, tb.String())
	return regressed, err
}
