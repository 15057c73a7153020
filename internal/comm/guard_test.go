package comm

import (
	"errors"
	"testing"
)

// TestGuardedAbortsBeforeMutation: a failing guard aborts the collective
// with every buffer untouched — the property that makes retrying guarded
// collectives bit-safe.
func TestGuardedAbortsBeforeMutation(t *testing.T) {
	boom := errors.New("boom")
	fail := Guard(func() error { return boom })

	const p, rows, width = 4, 2, 3
	dims := BlockDims{Rows: rows, Width: width}
	b := dims.Elems()
	a2a := randRanks(2, p, p*b)
	out := make([][]float64, p)
	for r := range out {
		out[r] = make([]float64, p*b)
	}
	if _, err := AlltoAllRowsGuarded(fail, A2ADirect, a2a, out, 2, dims, RowRange{Lo: 0, Hi: rows}); !errors.Is(err, boom) {
		t.Fatalf("A2A guard error not surfaced: %v", err)
	}
	for r := range out {
		for i := range out[r] {
			if out[r][i] != 0 {
				t.Fatal("A2A out buffer written despite guard abort")
			}
		}
	}
}

// TestGuardedNilAndPass: nil guards and passing guards are transparent —
// the guarded AlltoAll produces the exact bytes of the unguarded one.
func TestGuardedNilAndPass(t *testing.T) {
	const p, rows, width = 4, 2, 3
	dims := BlockDims{Rows: rows, Width: width}
	b := dims.Elems()
	rr := RowRange{Lo: 0, Hi: rows}
	data := randRanks(3, p, p*b)
	out := func() [][]float64 {
		o := make([][]float64, p)
		for r := range o {
			o[r] = make([]float64, p*b)
		}
		return o
	}
	want := out()
	if _, err := AlltoAllRows(A2A1DH, data, want, 2, dims, rr); err != nil {
		t.Fatal(err)
	}
	for _, g := range []Guard{nil, func() error { return nil }} {
		got := out()
		if _, err := AlltoAllRowsGuarded(g, A2A1DH, data, got, 2, dims, rr); err != nil {
			t.Fatal(err)
		}
		for r := range got {
			for i := range got[r] {
				if got[r][i] != want[r][i] {
					t.Fatalf("guarded AlltoAll diverged at rank %d elem %d", r, i)
				}
			}
		}
	}
}
