package comm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// tiles cuts n tiles of rows × width per rank out of bufs.
func tiles(bufs [][]float64, n, rows, width int) [][]Block {
	return denseBlocks(bufs, n, BlockDims{Rows: rows, Width: width})
}

// withFill returns lists like ls whose block i of rank r points at
// fill(r, i), a count of its own: pairs agree by value, not by pointer.
func withFill(ls [][]Block, fill func(r, i int) int) [][]Block {
	out := make([][]Block, len(ls))
	for r, list := range ls {
		for i, b := range list {
			f := fill(r, i)
			b.Filled = &f
			out[r] = append(out[r], b)
		}
	}
	return out
}

// untouched is what the rows past a destination's fill hold before a call,
// and must hold after it: a value any move or sum over them would change.
const untouched = 7.5

// untouchedBuffers is p buffers of n elements, each untouched.
func untouchedBuffers(p, n int) [][]float64 {
	out := make([][]float64, p)
	for r := range out {
		out[r] = make([]float64, n)
		for i := range out[r] {
			out[r][i] = untouched
		}
	}
	return out
}

// checkFilled requires every block of got to hold want's rows below its
// fill, bit for bit, and untouched from there on.
func checkFilled(t *testing.T, label string, got, want [][]Block, rows int) {
	t.Helper()
	for r := range got {
		for i, b := range got[r] {
			for row := 0; row < rows; row++ {
				for col := 0; col < b.Width; col++ {
					v, w := b.Data[row*b.Stride+col], want[r][i].Data[row*b.Stride+col]
					if row >= *b.Filled {
						w = untouched
					}
					if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
						t.Fatalf("%s: rank %d block %d row %d col %d = %v, want %v (filled %d)", label, r, i, row, col, v, w, *b.Filled)
					}
				}
			}
		}
	}
}

// TestBlocksMoveFilledRowsOnly: with Block.Filled set, AlltoAllBlocks (all
// three algorithms), AllGatherBlocks and ReduceScatterBlocks move, and sum,
// the filled rows of every window exactly as they would without it, leave
// the rows past the fill as they were (untouched), keep the messages of the unfilled
// call, and count only the filled rows' elements — over random fills from
// none to every row, window by window. Paired blocks whose fills disagree
// are refused before anything moves.
func TestBlocksMoveFilledRowsOnly(t *testing.T) {
	const p, k, rows, width = 4, 2, 5, 3
	rng := xrand.New(62)
	for tc := 0; tc < 20; tc++ {
		fills := make([]int, p*p*k) // by (sender, peer block)
		for i := range fills {
			fills[i] = int(rng.Uint64() % (rows + 1))
		}
		tiling := randomTiling(rng, rows)
		// The AlltoAll: rows of send[s][d·k+j] land in recv[d][s·k+j].
		for _, algo := range []A2AAlgo{A2ADirect, A2A1DH, A2A2DH} {
			data := randomBuffers(uint64(tc), p, BlockDims{Rows: rows, Width: k * width})
			send := tiles(data, p*k, rows, width)
			ref, got := tiles(nanBuffers(p, p*k*rows*width), p*k, rows, width), tiles(untouchedBuffers(p, p*k*rows*width), p*k, rows, width)
			sendF := withFill(send, func(s, i int) int { return fills[s*p*k+i] })
			gotF := withFill(got, func(d, i int) int { return fills[i/k*p*k+d*k+i%k] })
			for _, rr := range tiling {
				want, err := AlltoAllBlocks(algo, send, ref, 2, rr)
				if err != nil {
					t.Fatal(err)
				}
				st, err := AlltoAllBlocks(algo, sendF, gotF, 2, rr)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("case %d %s rows %v", tc, algo, rr)
				if st.IntraMessages != want.IntraMessages || st.InterMessages != want.InterMessages {
					t.Fatalf("%s: messages %+v, the unfilled call's %+v", label, st, want)
				}
				if algo == A2ADirect {
					elems := 0
					for s := range p {
						for i, b := range sendF[s] {
							if i/k != s {
								elems += b.rows(rr.Lo, rr.Hi) * width
							}
						}
					}
					if got := st.IntraVolume + st.InterVolume; got != float64(elems) {
						t.Fatalf("%s: %v elements counted, %d filled rows' moved", label, got, elems)
					}
				}
			}
			checkFilled(t, fmt.Sprintf("case %d %s", tc, algo), gotF, ref, rows)
		}

		// AllGather and ReduceScatter: narrow block j of member c pairs with
		// wide block c·k+j of every member.
		narrowFill := func(c, j int) int { return fills[c*k+j] }
		wideFill := func(_, i int) int { return narrowFill(i/k, i%k) }
		src := tiles(randomBuffers(uint64(100+tc), p, BlockDims{Rows: rows, Width: k * width}), k, rows, width)
		ref, got := tiles(nanBuffers(p, p*k*rows*width), p*k, rows, width), tiles(untouchedBuffers(p, p*k*rows*width), p*k, rows, width)
		srcF, gotF := withFill(src, narrowFill), withFill(got, wideFill)
		contrib := tiles(randomBuffers(uint64(200+tc), p, BlockDims{Rows: rows, Width: k * width}), p*k, rows, width)
		sum, sumGot := tiles(nanBuffers(p, k*rows*width), k, rows, width), tiles(untouchedBuffers(p, k*rows*width), k, rows, width)
		contribF, sumF := withFill(contrib, wideFill), withFill(sumGot, narrowFill)
		for _, rr := range tiling {
			filled := 0
			for c := range p {
				for j := range k {
					filled += srcF[c][j].rows(rr.Lo, rr.Hi) * width
				}
			}
			for _, coll := range []struct {
				name             string
				run              func(src, dst [][]Block) (Stats, error)
				src, dst, fs, fd [][]Block
			}{
				{"allgather", func(s, d [][]Block) (Stats, error) { return AllGatherBlocks(s, d, 2, rr) }, src, ref, srcF, gotF},
				{"reduce-scatter", func(s, d [][]Block) (Stats, error) { return ReduceScatterBlocks(s, d, 2, rr) }, contrib, sum, contribF, sumF},
			} {
				want, err := coll.run(coll.src, coll.dst)
				if err != nil {
					t.Fatal(err)
				}
				st, err := coll.run(coll.fs, coll.fd)
				if err != nil {
					t.Fatal(err)
				}
				if st.IntraMessages != want.IntraMessages || st.InterMessages != want.InterMessages ||
					st.IntraVolume+st.InterVolume != float64((p-1)*filled) {
					t.Fatalf("case %d %s rows %v: stats %+v, want %+v's messages and %d elements", tc, coll.name, rr, st, want, (p-1)*filled)
				}
			}
		}
		checkFilled(t, fmt.Sprintf("case %d allgather", tc), gotF, ref, rows)
		checkFilled(t, fmt.Sprintf("case %d reduce-scatter", tc), sumF, sum, rows)
	}

	// A receive block whose fill disagrees with its send block's is refused.
	data := randomBuffers(7, p, BlockDims{Rows: rows, Width: k * width})
	send := withFill(tiles(data, p*k, rows, width), func(int, int) int { return rows })
	recv := withFill(tiles(nanBuffers(p, p*k*rows*width), p*k, rows, width), func(d, i int) int {
		if d == 1 && i == 2 {
			return rows - 1
		}
		return rows
	})
	if _, err := AlltoAllBlocks(A2ADirect, send, recv, 2, RowRange{Lo: 0, Hi: rows}); err == nil {
		t.Fatal("an AlltoAll whose paired blocks disagree on their fill ran")
	}
	for r := range recv {
		for _, b := range recv[r] {
			for _, v := range b.Data {
				if !math.IsNaN(v) {
					t.Fatal("a refused AlltoAll moved rows")
				}
			}
		}
	}
}
