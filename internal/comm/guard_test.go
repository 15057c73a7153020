package comm

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

// TestGuardedAbortsBeforeMutation: a failing guard aborts the collective
// with every buffer untouched — the property that makes retrying guarded
// collectives bit-safe.
func TestGuardedAbortsBeforeMutation(t *testing.T) {
	boom := errors.New("boom")
	fail := Guard(func() error { return boom })

	data := randRanks(1, 4, 8)
	snap := cloneRanks(data)
	if _, err := BroadcastGuarded(fail, data, 0, 2); !errors.Is(err, boom) {
		t.Fatalf("guard error not surfaced: %v", err)
	}
	for r := range data {
		for i := range data[r] {
			if data[r][i] != snap[r][i] {
				t.Fatalf("rank %d elem %d mutated despite guard abort", r, i)
			}
		}
	}

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
// the guard-taking block-endpoint collectives produce the exact bytes of the
// dense forms, which take none.
func TestGuardedNilAndPass(t *testing.T) {
	pass := Guard(func() error { return nil })
	const p, rows, width = 4, 2, 3
	dims := BlockDims{Rows: rows, Width: width}
	b := dims.Elems()
	rr := RowRange{Lo: 0, Hi: rows}

	agWant := make([][]float64, p)
	agData := randRanks(3, p, b)
	for r := range agWant {
		agWant[r] = make([]float64, p*b)
	}
	if _, err := AllGatherRows(agData, agWant, 2, dims, rr); err != nil {
		t.Fatal(err)
	}
	for _, g := range []Guard{nil, pass} {
		got := make([][]float64, p)
		for r := range got {
			got[r] = make([]float64, p*b)
		}
		if _, err := AllGatherBlocks(g, denseBlocks(agData, 1, dims), denseBlocks(got, p, dims), 2, rr); err != nil {
			t.Fatal(err)
		}
		for r := range got {
			for i := range got[r] {
				if got[r][i] != agWant[r][i] {
					t.Fatalf("guarded AllGather diverged at rank %d elem %d", r, i)
				}
			}
		}
	}

	rsData := randRanks(5, p, p*b)
	rsWant := make([][]float64, p)
	rsGot := make([][]float64, p)
	for r := 0; r < p; r++ {
		rsWant[r] = make([]float64, b)
		rsGot[r] = make([]float64, b)
	}
	if _, err := ReduceScatterRows(rsData, rsWant, 2, dims, rr); err != nil {
		t.Fatal(err)
	}
	if _, err := ReduceScatterBlocks(pass, denseBlocks(rsData, p, dims), denseBlocks(rsGot, 1, dims), 2, rr); err != nil {
		t.Fatal(err)
	}
	for r := range rsGot {
		for i := range rsGot[r] {
			if rsGot[r][i] != rsWant[r][i] {
				t.Fatalf("guarded ReduceScatter diverged at rank %d elem %d", r, i)
			}
		}
	}
}

// TestGuardFromFaultPlan: a fault.Plan guard composes with the guarded
// collectives — transient until the cap, then clean.
func TestGuardFromFaultPlan(t *testing.T) {
	fp := fault.New(fault.Spec{Seed: 5, CollectiveProb: 1, MaxTransientsPerTask: 1})
	g := Guard(fp.Guard("intra", "AllGather", -1, 0))
	data := randRanks(4, 4, 8)
	if _, err := BroadcastGuarded(g, data, 0, 2); !fault.IsTransient(err) {
		t.Fatalf("first attempt not transient: %v", err)
	}
	if _, err := BroadcastGuarded(g, data, 0, 2); err != nil {
		t.Fatalf("retry past cap failed: %v", err)
	}
}
