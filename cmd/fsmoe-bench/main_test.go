package main

import (
	"encoding/json"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestExperimentDispatchTable: every name "all" expands to must exist in
// the dispatch table, chaos is the only experiment outside "all" (the one
// that executes real passes), and lookups resolve exactly the named
// experiment.
func TestExperimentDispatchTable(t *testing.T) {
	table := experimentTable()
	inAll := map[string]bool{}
	for _, name := range allOrder() {
		if table[name] == nil {
			t.Fatalf("'all' references %q which is not in the dispatch table", name)
		}
		inAll[name] = true
	}
	var outside []string
	for name := range table {
		if !inAll[name] {
			outside = append(outside, name)
		}
	}
	if len(outside) != 1 || outside[0] != "chaos" {
		t.Fatalf("experiments outside 'all' = %v, want [chaos]", outside)
	}
	names, err := lookupExperiments("all")
	if err != nil || len(names) != len(allOrder()) {
		t.Fatalf("lookup all: %v, %d names", err, len(names))
	}
	for _, name := range []string{"fig4", "chaos"} {
		names, err = lookupExperiments(name)
		if err != nil || len(names) != 1 || names[0] != name {
			t.Fatalf("lookup %s: %v %v", name, names, err)
		}
	}
}

// TestExperimentLookupRejectsUnknown: a typo, or an experiment that has
// been retired, fails with an error listing every valid experiment; the
// -experiment usage text lists exactly the same names.
func TestExperimentLookupRejectsUnknown(t *testing.T) {
	valid := validExperimentNames()
	for _, name := range []string{"tabel5", "realpipe", "gradsync", "calibrate", "telemetry"} {
		_, err := lookupExperiments(name)
		if err == nil {
			t.Fatalf("experiment %q must be rejected", name)
		}
		for _, want := range valid {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not list valid experiment %q", err, want)
			}
		}
	}
	f := flag.Lookup("experiment")
	if f == nil {
		t.Fatal("no -experiment flag registered")
	}
	if got := strings.Split(f.Usage, "|"); !slices.Equal(got, valid) {
		t.Fatalf("-experiment usage lists %v, want %v", got, valid)
	}
}

// TestJSONCapture: tables and notes emitted while capturing land in
// BENCH_<experiment>.json, mirroring the printed cells exactly.
func TestJSONCapture(t *testing.T) {
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	beginJSONCapture("unittest")
	tb := report.NewTable("title", "a", "b")
	tb.AddRow("x", 1.5)
	emit(tb)
	note("hello %d", 7)
	if err := writeJSONCapture(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("BENCH_unittest.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc report.Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "unittest" || len(doc.Tables) != 1 || len(doc.Notes) != 1 {
		t.Fatalf("unexpected doc %+v", doc)
	}
	tab := doc.Tables[0]
	if tab.Title != "title" || len(tab.Columns) != 2 || len(tab.Rows) != 1 ||
		tab.Rows[0][0] != "x" || tab.Rows[0][1] != "1.50" {
		t.Fatalf("unexpected table %+v", tab)
	}
	if doc.Notes[0] != "hello 7" {
		t.Fatalf("unexpected notes %v", doc.Notes)
	}
	// Capture is off again: emit must not panic or accumulate.
	emit(tb)
	if jsonSink != nil {
		t.Fatal("sink still active after write")
	}
}
