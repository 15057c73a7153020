package main

// Machine-readable experiment output: with -json, every table an
// experiment prints is also captured into BENCH_<experiment>.json via the
// shared report.Doc schema.

import (
	"fmt"

	"repro/internal/report"
)

// jsonSink collects the current experiment's document; nil when -json is
// off or between experiments.
var jsonSink *report.Doc

// beginJSONCapture starts collecting for one experiment.
func beginJSONCapture(experiment string) {
	jsonSink = report.NewDoc(experiment)
}

// writeJSONCapture writes the collected document to BENCH_<experiment>.json
// in the working directory and stops collecting.
func writeJSONCapture() error {
	doc := jsonSink
	jsonSink = nil
	if doc == nil {
		return nil
	}
	path, err := doc.WriteFile()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// emit prints a table and, when capturing, records it.
func emit(tb *report.Table) {
	fmt.Println(tb)
	if jsonSink != nil {
		jsonSink.AddTable(tb)
	}
}

// note prints a line and, when capturing, records it in the document's
// notes.
func note(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	fmt.Println(line)
	if jsonSink != nil {
		jsonSink.Notes = append(jsonSink.Notes, line)
	}
}
