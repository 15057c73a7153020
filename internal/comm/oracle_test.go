package comm

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// This file holds the reference collectives the windowed ones are held to:
// the allocating whole-buffer rings (each step staged through a copy, the
// textbook schedule) and the AlltoAll permutation by its definition. They
// share no code with the collectives under test.

// ringAllGather concatenates every rank's buffer on every rank:
// out[r] = data[0] ‖ data[1] ‖ … ‖ data[p-1], moved in p-1 ring steps.
func ringAllGather(data [][]float64, gpusPerNode int) ([][]float64, Stats, error) {
	var st Stats
	n, err := checkUniform(data)
	if err != nil {
		return nil, st, err
	}
	p := len(data)
	w := world{g: gpusPerNode}
	out := make([][]float64, p)
	for r := 0; r < p; r++ {
		out[r] = make([]float64, n*p)
		copy(out[r][r*n:(r+1)*n], data[r])
	}
	for s := 0; s < p-1; s++ {
		staged := make([][]float64, p)
		for r := 0; r < p; r++ {
			c := ((r-s)%p + p) % p
			staged[r] = append([]float64(nil), out[r][c*n:(c+1)*n]...)
		}
		for r := 0; r < p; r++ {
			dst := (r + 1) % p
			c := ((r-s)%p + p) % p
			copy(out[dst][c*n:(c+1)*n], staged[r])
			st.add(w.sameNode(r, dst), n)
		}
	}
	return out, st, nil
}

// ringReduceScatter sums the rank buffers elementwise and leaves segment r
// of the sum on rank r: out[r] = Σ_s data[s][r·n/p : (r+1)·n/p]. The input
// length must be divisible by p; the inputs are not modified.
func ringReduceScatter(data [][]float64, gpusPerNode int) ([][]float64, Stats, error) {
	var st Stats
	n, err := checkUniform(data)
	if err != nil {
		return nil, st, err
	}
	p := len(data)
	if n%p != 0 {
		return nil, st, fmt.Errorf("reduce-scatter length %d not divisible by %d ranks", n, p)
	}
	w := world{g: gpusPerNode}
	seg := n / p
	work := make([][]float64, p)
	for r := range data {
		work[r] = append([]float64(nil), data[r]...)
	}
	chunk := func(r, c int) []float64 { return work[r][c*seg : (c+1)*seg] }
	for s := 0; s < p-1; s++ {
		staged := make([][]float64, p)
		for r := 0; r < p; r++ {
			staged[r] = append([]float64(nil), chunk(r, ((r-s)%p+p)%p)...)
		}
		for r := 0; r < p; r++ {
			dst := (r + 1) % p
			dchunk := chunk(dst, ((r-s)%p+p)%p)
			for i, v := range staged[r] {
				dchunk[i] += v
			}
			st.add(w.sameNode(r, dst), seg)
		}
	}
	out := make([][]float64, p)
	for r := 0; r < p; r++ {
		// After p-1 steps rank r holds the reduced chunk (r+1) mod p; the
		// conventional output is segment r, so shift.
		c := (r + 1) % p
		out[c] = append([]float64(nil), chunk(r, c)...)
	}
	return out, st, nil
}

// alltoallOracle is the AlltoAll permutation itself: each rank's buffer is p
// equal blocks, and block d of source s lands as block s of destination d.
func alltoallOracle(data [][]float64) [][]float64 {
	p := len(data)
	b := len(data[0]) / p
	out := make([][]float64, p)
	for d := range out {
		out[d] = make([]float64, p*b)
		for s := 0; s < p; s++ {
			copy(out[d][s*b:(s+1)*b], data[s][d*b:(d+1)*b])
		}
	}
	return out
}

// wholeAlltoAll runs the named algorithm over whole blocks into a freshly
// allocated result: the one-row window of BlockDims{Rows: 1, Width: b}.
func wholeAlltoAll(algo A2AAlgo, data [][]float64, gpusPerNode int) ([][]float64, Stats, error) {
	if len(data) == 0 {
		return nil, Stats{}, fmt.Errorf("no ranks")
	}
	p, b := len(data), len(data[0])/len(data)
	out := make([][]float64, p)
	for d := range out {
		out[d] = make([]float64, len(data[0]))
	}
	st, err := AlltoAllRows(algo, data, out, gpusPerNode, BlockDims{Rows: 1, Width: b}, RowRange{Lo: 0, Hi: 1})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

func TestRingAllGather(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		p := 2 + r.Intn(7)
		n := 1 + r.Intn(20)
		data := randWorld(r, p, n)
		out, _, err := ringAllGather(data, 0)
		if err != nil {
			return false
		}
		for rr := 0; rr < p; rr++ {
			for s := 0; s < p; s++ {
				for j := 0; j < n; j++ {
					if out[rr][s*n+j] != data[s][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRingReduceScatter(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		p := 2 + r.Intn(7)
		seg := 1 + r.Intn(10)
		n := p * seg
		data := randWorld(r, p, n)
		orig := cloneWorld(data)
		out, _, err := ringReduceScatter(data, 0)
		if err != nil {
			return false
		}
		for rr := 0; rr < p; rr++ {
			for j := 0; j < seg; j++ {
				want := 0.0
				for s := 0; s < p; s++ {
					want += orig[s][rr*seg+j]
				}
				if math.Abs(out[rr][j]-want) > 1e-9 {
					return false
				}
			}
		}
		// Inputs must be preserved.
		return worldsEqual(data, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterRejectsIndivisible(t *testing.T) {
	if _, _, err := ringReduceScatter(randWorld(xrand.New(1), 3, 4), 0); err == nil {
		t.Fatal("expected error for 4 elements over 3 ranks")
	}
}

func TestAllGatherReduceScatterDuality(t *testing.T) {
	// ReduceScatter(AllGather(x)) over identical inputs recovers p·x.
	r := xrand.New(5)
	p, n := 4, 8
	data := randWorld(r, p, n)
	gathered, _, err := ringAllGather(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ringReduceScatter(gathered, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rr := 0; rr < p; rr++ {
		for j := 0; j < n; j++ {
			want := 0.0
			for s := 0; s < p; s++ {
				want += gathered[s][rr*n+j]
			}
			if math.Abs(out[rr][j]-want) > 1e-9 {
				t.Fatalf("duality broken at rank %d elem %d", rr, j)
			}
		}
	}
}
