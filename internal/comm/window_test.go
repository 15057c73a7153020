package comm

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// randomTiling cuts [0, rows) into contiguous non-empty ranges at random
// points and returns them in random order.
func randomTiling(rng *xrand.RNG, rows int) []RowRange {
	var out []RowRange
	for lo := 0; lo < rows; {
		hi := lo + 1 + rng.Intn(rows-lo)
		out = append(out, RowRange{Lo: lo, Hi: hi})
		lo = hi
	}
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func nanBuffers(p, n int) [][]float64 {
	out := make([][]float64, p)
	for r := range out {
		out[r] = make([]float64, n)
		for i := range out[r] {
			out[r][i] = math.NaN()
		}
	}
	return out
}

// splitTiles cuts every dense (Rows × Width) block of every rank into k
// separately allocated (Rows × Width/k) tiles holding its column bands —
// the block-list layout of the same data. fill=false leaves them NaN.
func splitTiles(dense [][]float64, p, k int, dims BlockDims, fill bool) [][][]float64 {
	tw := dims.Width / k
	out := make([][][]float64, len(dense))
	for r := range dense {
		out[r] = make([][]float64, p*k)
		for d := 0; d < p; d++ {
			for j := 0; j < k; j++ {
				tile := make([]float64, dims.Rows*tw)
				for t := 0; t < dims.Rows; t++ {
					for c := 0; c < tw; c++ {
						v := math.NaN()
						if fill {
							v = dense[r][d*dims.Elems()+t*dims.Width+j*tw+c]
						}
						tile[t*tw+c] = v
					}
				}
				out[r][d*k+j] = tile
			}
		}
	}
	return out
}

// TestAlltoAllWindowProperty: for random rank counts, node shapes, block
// shapes and tilings of the rows taken in random order, the windowed
// AlltoAll — over dense endpoints and over block lists — reproduces the
// monolithic collective byte for byte, leaves every row outside the windows
// moved so far untouched, and sums to the monolithic traffic.
func TestAlltoAllWindowProperty(t *testing.T) {
	rng := xrand.New(20240913)
	for tc := 0; tc < 200; tc++ {
		p := []int{2, 4, 8}[rng.Intn(3)]
		var divs []int
		for g := 1; g <= p; g++ {
			if p%g == 0 {
				divs = append(divs, g)
			}
		}
		g := divs[rng.Intn(len(divs))]
		k := 1 + rng.Intn(3)
		dims := BlockDims{Rows: 1 + rng.Intn(9), Width: k * (1 + rng.Intn(4))}
		b := dims.Elems()
		data := randomBuffers(uint64(1000+tc), p, dims)
		tiling := randomTiling(rng, dims.Rows)
		for _, algo := range []A2AAlgo{A2ADirect, A2A1DH, A2A2DH} {
			want, wantSt, err := AlltoAll(algo, data, g)
			if err != nil {
				t.Fatalf("case %d %s: monolithic: %v", tc, algo, err)
			}
			out := nanBuffers(p, p*b)
			send := splitTiles(data, p, k, dims, true)
			recv := splitTiles(out, p, k, dims, false)
			tdims := BlockDims{Rows: dims.Rows, Width: dims.Width / k}
			moved := make([]bool, dims.Rows)
			var sum Stats
			for _, rr := range tiling {
				st, err := AlltoAllRows(algo, data, out, g, dims, rr)
				if err != nil {
					t.Fatalf("case %d %s rows %v: %v", tc, algo, rr, err)
				}
				tst, err := AlltoAllTiles(algo, send, recv, g, tdims, rr)
				if err != nil {
					t.Fatalf("case %d %s tiles %v: %v", tc, algo, rr, err)
				}
				if tst != st {
					t.Fatalf("case %d %s rows %v: block-list stats %+v, dense %+v", tc, algo, rr, tst, st)
				}
				sum.Merge(st)
				for r := rr.Lo; r < rr.Hi; r++ {
					moved[r] = true
				}
				for d := 0; d < p; d++ {
					for i, v := range out[d] {
						row := i % b / dims.Width
						col := i % dims.Width
						tv := recv[d][i/b*k+col/tdims.Width][row*tdims.Width+col%tdims.Width]
						if !moved[row] {
							if !math.IsNaN(v) || !math.IsNaN(tv) {
								t.Fatalf("case %d %s after %v: rank %d offset %d outside the windows was written (%v, tiles %v)", tc, algo, rr, d, i, v, tv)
							}
							continue
						}
						if v != want[d][i] || tv != want[d][i] {
							t.Fatalf("case %d %s after %v: rank %d offset %d = %v (tiles %v), want %v", tc, algo, rr, d, i, v, tv, want[d][i])
						}
					}
				}
			}
			// Every window repeats the monolithic message pattern with its
			// share of the volume.
			wantSt.IntraMessages *= len(tiling)
			wantSt.InterMessages *= len(tiling)
			if sum != wantSt {
				t.Fatalf("case %d %s p=%d g=%d %v over %v: summed stats %+v, want %+v", tc, algo, p, g, dims, tiling, sum, wantSt)
			}
		}
	}
}

// TestAlltoAllRowsDirectAllocFree: a Direct window moves straight between
// the caller's buffers — no staging, no allocation.
func TestAlltoAllRowsDirectAllocFree(t *testing.T) {
	dims := BlockDims{Rows: 12, Width: 16}
	data := randomBuffers(5, 4, dims)
	out := nanBuffers(4, 4*dims.Elems())
	rr := RowRange{Lo: 3, Hi: 9}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := AlltoAllRows(A2ADirect, data, out, 2, dims, rr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a Direct window call allocates %v times, want 0", allocs)
	}
}
