package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.AddRow("alpha", 1.234)
	tb.AddRow("beta-with-long-name", 56.7)
	out := tb.String()
	if !strings.Contains(out, "Title") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.23") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: every data line has the same prefix width for col 2.
	if !strings.Contains(lines[1], "name") {
		t.Fatalf("header line wrong: %q", lines[1])
	}
}

func TestTableMixedTypes(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow(1, "x", 2.5)
	out := tb.String()
	if !strings.Contains(out, "1") || !strings.Contains(out, "x") || !strings.Contains(out, "2.50") {
		t.Fatalf("bad render:\n%s", out)
	}
}
