package comm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func randWorld(r *xrand.RNG, p, n int) [][]float64 {
	data := make([][]float64, p)
	for i := range data {
		data[i] = make([]float64, n)
		for j := range data[i] {
			data[i][j] = r.NormFloat64()
		}
	}
	return data
}

func cloneWorld(data [][]float64) [][]float64 {
	out := make([][]float64, len(data))
	for i := range data {
		out[i] = append([]float64(nil), data[i]...)
	}
	return out
}

func TestRingAllReduceEqualsSum(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		p := 2 + r.Intn(7)
		n := 1 + r.Intn(40)
		data := randWorld(r, p, n)
		want := make([]float64, n)
		for _, d := range data {
			for j, v := range d {
				want[j] += v
			}
		}
		if _, err := RingAllReduce(data, 0); err != nil {
			return false
		}
		for _, d := range data {
			for j := range d {
				if math.Abs(d[j]-want[j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRingAllReduceSingleRank(t *testing.T) {
	data := [][]float64{{1, 2, 3}}
	st, err := RingAllReduce(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.InterMessages+st.IntraMessages != 0 {
		t.Fatal("single rank should not communicate")
	}
}

func TestRingAllReduceVolume(t *testing.T) {
	// Ring allreduce moves (p-1)/p · n per rank in each half: 2(p-1)·n in
	// all, in 2(p-1)·p messages, exactly the untiled ring's counts.
	p, n := 4, 3*RingTile+65
	r := xrand.New(1)
	data := randWorld(r, p, n)
	want := untiledRing(cloneRanks(data), 2, RowRange{Lo: 0, Hi: n}, nil)
	st, err := RingAllReduce(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("stats %+v, untiled ring %+v", st, want)
	}
	if vol, msgs := st.InterVolume+st.IntraVolume, st.InterMessages+st.IntraMessages; vol != float64(2*(p-1)*n) || msgs != 2*(p-1)*p {
		t.Fatalf("moved %v elements in %d messages, want %d in %d", vol, msgs, 2*(p-1)*n, 2*(p-1)*p)
	}
}

func TestErrorsOnRaggedWorld(t *testing.T) {
	data := [][]float64{{1, 2}, {1}}
	if _, err := RingAllReduce(data, 0); err == nil {
		t.Fatal("expected error for ragged buffers")
	}
	out := [][]float64{make([]float64, 4), make([]float64, 4)}
	if _, err := AllGatherRows(data, out, 0, BlockDims{Rows: 1, Width: 2}, RowRange{Lo: 0, Hi: 1}); err == nil {
		t.Fatal("expected error for ragged buffers")
	}
}

func TestEmptyWorld(t *testing.T) {
	if _, err := RingAllReduce(nil, 0); err == nil {
		t.Fatal("expected error for no ranks")
	}
}
