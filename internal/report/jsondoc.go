package report

// Machine-readable experiment output: a Doc collects every table and note
// a command prints and serializes them to BENCH_<name>.json, so the perf
// trajectory across commits can be tracked by tooling instead of by
// scraping stdout. The JSON mirrors the printed tables cell for cell —
// one source of truth, two renderings.

import (
	"encoding/json"
	"fmt"
	"os"
)

// JSONTable is one table of an experiment document.
type JSONTable struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// Doc is the BENCH_<name>.json schema: the tables and notes of one
// experiment or command run.
type Doc struct {
	Experiment string      `json:"experiment"`
	Tables     []JSONTable `json:"tables"`
	Notes      []string    `json:"notes,omitempty"`
}

// NewDoc starts an empty document for the named experiment.
func NewDoc(experiment string) *Doc {
	return &Doc{Experiment: experiment}
}

// AddTable records a table cell for cell.
func (d *Doc) AddTable(tb *Table) {
	d.Tables = append(d.Tables, JSONTable{
		Title:   tb.Title,
		Columns: tb.Headers,
		Rows:    tb.Rows(),
	})
}

// WriteFile writes the document to BENCH_<experiment>.json in the working
// directory and returns the path written.
func (d *Doc) WriteFile() (string, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	path := fmt.Sprintf("BENCH_%s.json", d.Experiment)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
