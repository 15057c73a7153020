package comm

import (
	"testing"

	"repro/internal/xrand"
)

// groupShapes enumerates the rank subsets the byte-identity tests sweep:
// a singleton, a contiguous block, a strided lane, and the full world —
// the group shapes the hybrid strategy actually uses (intra-group
// collectives on contiguous blocks, inter-group AlltoAll on strided
// lanes) plus both degenerate sizes.
func groupShapes(n int) [][]int {
	shapes := [][]int{{n / 2}}
	contig := make([]int, 0, n/2)
	for r := 0; r < n/2; r++ {
		contig = append(contig, r)
	}
	if len(contig) > 0 {
		shapes = append(shapes, contig)
	}
	strided := make([]int, 0, n/2)
	for r := 1; r < n; r += 2 {
		strided = append(strided, r)
	}
	if len(strided) > 0 {
		shapes = append(shapes, strided)
	}
	full := make([]int, n)
	for r := range full {
		full[r] = r
	}
	return append(shapes, full)
}

// TestGroupCollectivesMatchMonolithic: every group-scoped collective is
// byte-identical to the monolithic collective run on standalone copies of
// the members' buffers, across group shapes, chunk tilings and uneven row
// splits — and never touches a non-member buffer.
func TestGroupCollectivesMatchMonolithic(t *testing.T) {
	r := xrand.New(41)
	const n = 8 // global ranks
	for _, group := range groupShapes(n) {
		p := len(group)
		for _, dims := range []BlockDims{
			{Rows: 6, Width: 3}, // rows not divisible by most chunk counts
			{Rows: 4, Width: 5},
		} {
			blk := dims.Elems()
			member := make(map[int]bool, p)
			for _, g := range group {
				member[g] = true
			}
			checkOthers := func(label string, before, after [][]float64) {
				t.Helper()
				for g := 0; g < n; g++ {
					if !member[g] && !worldsEqual([][]float64{before[g]}, [][]float64{after[g]}) {
						t.Fatalf("%s: group %v touched non-member rank %d", label, group, g)
					}
				}
			}
			sub := func(all [][]float64) [][]float64 {
				s := make([][]float64, p)
				for k, g := range group {
					s[k] = all[g]
				}
				return s
			}

			for _, chunks := range []int{1, 2, 3} {
				// AlltoAll over the subset, every algorithm, tiled.
				for _, algo := range []A2AAlgo{A2ADirect, A2A1DH, A2A2DH} {
					if p%2 != 0 && algo != A2ADirect {
						continue // hierarchical algos need an even node split
					}
					gpn := p
					if algo != A2ADirect {
						gpn = p / 2
					}
					data := randWorld(r, n, p*blk)
					snap := cloneWorld(data)
					out := randWorld(r, n, p*blk)
					outSnap := cloneWorld(out)
					wantOut := cloneWorld(sub(outSnap))
					for _, rr := range SplitRows(dims.Rows, chunks) {
						if _, err := GroupAlltoAllRows(algo, group, data, out, gpn, dims, rr); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := AlltoAllRows(algo, cloneWorld(sub(snap)), wantOut, gpn, dims, RowRange{0, dims.Rows}); err != nil {
						t.Fatal(err)
					}
					if !worldsEqual(sub(out), wantOut) {
						t.Fatalf("GroupAlltoAllRows(%s) group %v chunks %d differs from monolithic", algo, group, chunks)
					}
					checkOthers("GroupAlltoAllRows", snap, data)
					checkOthers("GroupAlltoAllRows(out)", outSnap, out)
				}

				// AllGatherRows over the subset, tiled.
				{
					data := randWorld(r, n, blk)
					snap := cloneWorld(data)
					out := randWorld(r, n, p*blk)
					wantOut := cloneWorld(sub(out))
					for _, rr := range SplitRows(dims.Rows, chunks) {
						if _, err := GroupAllGatherRows(group, data, out, p, dims, rr); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := AllGatherRows(cloneWorld(sub(snap)), wantOut, p, dims, RowRange{0, dims.Rows}); err != nil {
						t.Fatal(err)
					}
					if !worldsEqual(sub(out), wantOut) {
						t.Fatalf("GroupAllGatherRows group %v chunks %d differs from monolithic", group, chunks)
					}
					checkOthers("GroupAllGatherRows", snap, data)
				}
			}
		}
	}
}

// TestGroupValidation: malformed groups fail fast with buffers untouched.
func TestGroupValidation(t *testing.T) {
	r := xrand.New(43)
	data := randWorld(r, 4, 8)
	out := randWorld(r, 4, 8)
	dims := BlockDims{Rows: 2, Width: 2}
	for _, bad := range [][]int{{}, {-1}, {4}, {0, 0}, {1, 3, 1}} {
		if _, err := GroupAlltoAllRows(A2ADirect, bad, data, out, 4, dims, RowRange{0, 2}); err == nil {
			t.Fatalf("group %v must be rejected", bad)
		}
		if _, err := GroupAllGatherRows(bad, data, out, 4, BlockDims{Rows: 2, Width: 4}, RowRange{0, 2}); err == nil {
			t.Fatalf("group %v must be rejected", bad)
		}
	}
}
