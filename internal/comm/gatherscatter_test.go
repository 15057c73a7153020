package comm

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// TestRingIntoVariantsMatchAllocating: the whole-block windows of the
// caller-owned-destination forms — AllGatherRows/ReduceScatterRows, and
// AlltoAllRows for the three AlltoAll algorithms — move the same bytes as the
// allocating oracles, the rings with their Stats too.
func TestRingIntoVariantsMatchAllocating(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		nodes := 1 + r.Intn(3)
		g := 1 + r.Intn(3)
		p := nodes * g
		n := p * (1 + r.Intn(4))
		data := randWorld(r, p, n)

		wantAG, stAG, err := ringAllGather(data, g)
		if err != nil {
			return false
		}
		gotAG := make([][]float64, p)
		for i := range gotAG {
			gotAG[i] = make([]float64, n*p)
		}
		stAG2, err := AllGatherRows(data, gotAG, g, BlockDims{Rows: 1, Width: n}, RowRange{Lo: 0, Hi: 1})
		if err != nil || stAG != stAG2 || !worldsEqual(wantAG, gotAG) {
			return false
		}

		wantRS, stRS, err := ringReduceScatter(data, g)
		if err != nil {
			return false
		}
		gotRS := make([][]float64, p)
		for i := range gotRS {
			gotRS[i] = make([]float64, n/p)
		}
		stRS2, err := ReduceScatterRows(data, gotRS, g, BlockDims{Rows: 1, Width: n / p}, RowRange{Lo: 0, Hi: 1})
		if err != nil || stRS != stRS2 || !worldsEqual(wantRS, gotRS) {
			return false
		}

		want := alltoallOracle(data)
		for _, algo := range []A2AAlgo{A2ADirect, A2A1DH, A2A2DH} {
			got := nanBuffers(p, n)
			_, err := AlltoAllRows(algo, data, got, g, BlockDims{Rows: 1, Width: n / p}, RowRange{Lo: 0, Hi: 1})
			if err != nil || !worldsEqual(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedAllGatherBitIdentical: any chunking of the row dimension
// reassembles the monolithic ring AllGather byte for byte, with the same
// total traffic.
func TestChunkedAllGatherBitIdentical(t *testing.T) {
	r := xrand.New(7)
	const p, rows, width = 4, 6, 3
	data := randWorld(r, p, rows*width)
	want, wantSt, err := ringAllGather(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	dims := BlockDims{Rows: rows, Width: width}
	for _, chunks := range []int{1, 2, 3, 4, 6, 9} {
		got := nanBuffers(p, p*dims.Elems())
		var st Stats
		for _, rr := range SplitRows(rows, chunks) {
			cst, err := AllGatherRows(data, got, 2, dims, rr)
			if err != nil {
				t.Fatal(err)
			}
			st.Merge(cst)
		}
		if !worldsEqual(want, got) {
			t.Fatalf("chunks=%d: chunked allgather differs from monolithic", chunks)
		}
		if st.IntraVolume+st.InterVolume != wantSt.IntraVolume+wantSt.InterVolume {
			t.Fatalf("chunks=%d: volume %v+%v, want %v+%v", chunks,
				st.IntraVolume, st.InterVolume, wantSt.IntraVolume, wantSt.InterVolume)
		}
	}
}

// TestChunkedReduceScatterBitIdentical: the restricted ReduceScatter keeps
// the monolithic ring's per-element addition order, so any tiling is
// byte-identical to the monolithic ring.
func TestChunkedReduceScatterBitIdentical(t *testing.T) {
	r := xrand.New(11)
	const p, rows, width = 4, 5, 3
	data := randWorld(r, p, p*rows*width)
	want, wantSt, err := ringReduceScatter(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	dims := BlockDims{Rows: rows, Width: width}
	for _, chunks := range []int{1, 2, 3, 5, 8} {
		got := nanBuffers(p, dims.Elems())
		var st Stats
		for _, rr := range SplitRows(rows, chunks) {
			cst, err := ReduceScatterRows(data, got, 2, dims, rr)
			if err != nil {
				t.Fatal(err)
			}
			st.Merge(cst)
		}
		if !worldsEqual(want, got) {
			t.Fatalf("chunks=%d: chunked reduce-scatter differs from monolithic", chunks)
		}
		if st.IntraVolume+st.InterVolume != wantSt.IntraVolume+wantSt.InterVolume {
			t.Fatalf("chunks=%d: traffic volume mismatch", chunks)
		}
	}
}

// TestGatherScatterRowsPartial: a restricted collective touches only the
// requested rows of the output.
func TestGatherScatterRowsPartial(t *testing.T) {
	r := xrand.New(13)
	const p, rows, width = 2, 4, 2
	dims := BlockDims{Rows: rows, Width: width}
	data := randWorld(r, p, rows*width)
	out := make([][]float64, p)
	for i := range out {
		out[i] = make([]float64, p*rows*width)
		for j := range out[i] {
			out[i][j] = -99
		}
	}
	rr := RowRange{Lo: 1, Hi: 3}
	if _, err := AllGatherRows(data, out, p, dims, rr); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < p; d++ {
		for s := 0; s < p; s++ {
			for row := 0; row < rows; row++ {
				off := s*rows*width + row*width
				inRange := row >= rr.Lo && row < rr.Hi
				for j := 0; j < width; j++ {
					got := out[d][off+j]
					if inRange && got != data[s][row*width+j] {
						t.Fatalf("dst %d src %d row %d: got %v", d, s, row, got)
					}
					if !inRange && got != -99 {
						t.Fatalf("dst %d src %d row %d touched outside range", d, s, row)
					}
				}
			}
		}
	}

	partials := randWorld(r, p, p*rows*width)
	rsOut := make([][]float64, p)
	for i := range rsOut {
		rsOut[i] = make([]float64, rows*width)
		for j := range rsOut[i] {
			rsOut[i][j] = -99
		}
	}
	if _, err := ReduceScatterRows(partials, rsOut, p, dims, rr); err != nil {
		t.Fatal(err)
	}
	full, _, err := ringReduceScatter(partials, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p; i++ {
		for row := 0; row < rows; row++ {
			inRange := row >= rr.Lo && row < rr.Hi
			for j := 0; j < width; j++ {
				got := rsOut[i][row*width+j]
				if inRange && got != full[i][row*width+j] {
					t.Fatalf("rank %d row %d: got %v want %v", i, row, got, full[i][row*width+j])
				}
				if !inRange && got != -99 {
					t.Fatalf("rank %d row %d touched outside range", i, row)
				}
			}
		}
	}
}

// TestGatherScatterRowsErrors covers the argument validation.
func TestGatherScatterRowsErrors(t *testing.T) {
	dims := BlockDims{Rows: 2, Width: 2}
	good := [][]float64{make([]float64, 4), make([]float64, 4)}
	big := [][]float64{make([]float64, 8), make([]float64, 8)}
	rr := RowRange{Lo: 0, Hi: 2}
	if _, err := AllGatherRows(good, good, 0, dims, rr); err == nil {
		t.Fatal("undersized allgather destination must fail")
	}
	if _, err := AllGatherRows(good, big, 0, dims, RowRange{Lo: 0, Hi: 3}); err == nil {
		t.Fatal("out-of-range rows must fail")
	}
	if _, err := ReduceScatterRows(big, big, 0, dims, rr); err == nil {
		t.Fatal("oversized reduce-scatter destination must fail")
	}
	if _, err := ReduceScatterRows(nil, nil, 0, dims, rr); err == nil {
		t.Fatal("empty world must fail")
	}
}
