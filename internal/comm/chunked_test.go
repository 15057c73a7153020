package comm

import (
	"testing"

	"repro/internal/xrand"
)

func randomBuffers(seed uint64, p int, dims BlockDims) [][]float64 {
	rng := xrand.New(seed)
	data := make([][]float64, p)
	for r := range data {
		data[r] = make([]float64, p*dims.Elems())
		for i := range data[r] {
			data[r][i] = rng.NormFloat64()
		}
	}
	return data
}

func sameBuffers(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d ranks", label, len(a), len(b))
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("%s: rank %d length %d vs %d", label, r, len(a[r]), len(b[r]))
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("%s: rank %d element %d: %v vs %v", label, r, i, a[r][i], b[r][i])
			}
		}
	}
}

// TestChunkedAlltoAllMatchesMonolithic: for every algorithm and a sweep of
// chunk counts (including ones that do not divide the row count and ones
// exceeding it), the reassembled chunked result must be byte-identical to
// the whole-block collective, and the summed traffic volumes must match.
func TestChunkedAlltoAllMatchesMonolithic(t *testing.T) {
	cases := []struct {
		p, g int
		dims BlockDims
	}{
		{p: 4, g: 2, dims: BlockDims{Rows: 8, Width: 3}},
		{p: 4, g: 4, dims: BlockDims{Rows: 7, Width: 5}},
		{p: 8, g: 4, dims: BlockDims{Rows: 5, Width: 2}},
	}
	for _, algo := range []A2AAlgo{A2ADirect, A2A1DH, A2A2DH} {
		for _, tc := range cases {
			data := randomBuffers(11, tc.p, tc.dims)
			want, wantSt, err := wholeAlltoAll(algo, data, tc.g)
			if err != nil {
				t.Fatalf("%s: monolithic: %v", algo, err)
			}
			for _, chunks := range []int{1, 2, 3, 4, 100} {
				got, gotSt, err := ChunkedAlltoAll(algo, data, tc.g, tc.dims, chunks, nil)
				if err != nil {
					t.Fatalf("%s chunks=%d: %v", algo, chunks, err)
				}
				sameBuffers(t, string(algo), want, got)
				if gotSt.IntraVolume != wantSt.IntraVolume || gotSt.InterVolume != wantSt.InterVolume {
					t.Fatalf("%s chunks=%d: volume intra %v inter %v, want %v / %v",
						algo, chunks, gotSt.IntraVolume, gotSt.InterVolume, wantSt.IntraVolume, wantSt.InterVolume)
				}
			}
		}
	}
}

// TestChunkedAlltoAllCallback: the completion callback fires once per
// chunk, in order, with ranges that exactly tile the rows.
func TestChunkedAlltoAllCallback(t *testing.T) {
	dims := BlockDims{Rows: 10, Width: 2}
	data := randomBuffers(3, 4, dims)
	var got []RowRange
	if _, _, err := ChunkedAlltoAll(A2ADirect, data, 2, dims, 4, func(c int, rr RowRange) {
		if c != len(got) {
			t.Fatalf("chunk %d completed out of order", c)
		}
		got = append(got, rr)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("%d chunk completions, want 4", len(got))
	}
	next := 0
	for _, rr := range got {
		if rr.Lo != next || rr.Hi < rr.Lo {
			t.Fatalf("ranges do not tile: %v", got)
		}
		next = rr.Hi
	}
	if next != dims.Rows {
		t.Fatalf("ranges cover %d rows, want %d", next, dims.Rows)
	}
}

// TestSplitRows covers the splitting contract.
func TestSplitRows(t *testing.T) {
	for _, tc := range []struct {
		rows, chunks, want int
	}{
		{10, 4, 4}, {3, 8, 3}, {0, 4, 1}, {5, 1, 1}, {7, 0, 1},
	} {
		rs := SplitRows(tc.rows, tc.chunks)
		if len(rs) != tc.want {
			t.Fatalf("SplitRows(%d,%d) gave %d ranges, want %d", tc.rows, tc.chunks, len(rs), tc.want)
		}
		next := 0
		for _, r := range rs {
			if r.Lo != next || r.Hi < r.Lo {
				t.Fatalf("SplitRows(%d,%d) ranges do not tile: %v", tc.rows, tc.chunks, rs)
			}
			if tc.rows > 0 && r.Len() == 0 {
				t.Fatalf("SplitRows(%d,%d) produced an empty range: %v", tc.rows, tc.chunks, rs)
			}
			next = r.Hi
		}
		if next != tc.rows {
			t.Fatalf("SplitRows(%d,%d) covers %d rows", tc.rows, tc.chunks, next)
		}
	}
}
