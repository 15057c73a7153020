package comm

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func worldsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			return false
		}
		for j := range a[r] {
			if a[r][j] != b[r][j] {
				return false
			}
		}
	}
	return true
}

func TestDirectAlltoAllSemantics(t *testing.T) {
	// 2 ranks, 1 element per block: rank0=[a,b], rank1=[c,d] →
	// rank0=[a,c], rank1=[b,d].
	data := [][]float64{{1, 2}, {3, 4}}
	out, _, err := wholeAlltoAll(A2ADirect, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{{1, 3}, {2, 4}}; !worldsEqual(out, want) || !worldsEqual(alltoallOracle(data), want) {
		t.Fatalf("out = %v", out)
	}
}

// TestHierarchicalAlltoAllsMatchDirect is the core interchangeability
// property of the Dispatch sub-module: all three algorithms move identical
// data, the AlltoAll permutation itself.
func TestHierarchicalAlltoAllsMatchDirect(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		nodes := 1 + int(r.Uint64()%4)
		g := 1 + int(r.Uint64()%4)
		p := nodes * g
		b := 1 + int(r.Uint64()%5)
		data := randWorld(r, p, p*b)
		want := alltoallOracle(data)
		for _, algo := range []A2AAlgo{A2ADirect, A2A1DH, A2A2DH} {
			got, _, err := wholeAlltoAll(algo, data, g)
			if err != nil || !worldsEqual(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestAlltoAllInvolution: applying an AlltoAll twice restores the input —
// which is exactly why EP Combine is "another AlltoAll" (§2.2).
func TestAlltoAllInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		nodes := 1 + int(r.Uint64()%3)
		g := 1 + int(r.Uint64()%4)
		p := nodes * g
		b := 1 + int(r.Uint64()%4)
		data := randWorld(r, p, p*b)
		for _, algo := range []A2AAlgo{A2ADirect, A2A1DH, A2A2DH} {
			mid, _, err := wholeAlltoAll(algo, data, g)
			if err != nil {
				return false
			}
			back, _, err := wholeAlltoAll(algo, mid, g)
			if err != nil {
				return false
			}
			if !worldsEqual(back, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchicalReducesInterNodeMessages verifies the motivation for the
// 1DH/2DH algorithms: far fewer (larger) inter-node messages than the flat
// algorithm, at the cost of extra intra-node traffic.
func TestHierarchicalReducesInterNodeMessages(t *testing.T) {
	r := xrand.New(3)
	nodes, g, b := 4, 4, 8
	p := nodes * g
	data := randWorld(r, p, p*b)
	_, stDirect, err := wholeAlltoAll(A2ADirect, data, g)
	if err != nil {
		t.Fatal(err)
	}
	_, st2DH, err := wholeAlltoAll(A2A2DH, data, g)
	if err != nil {
		t.Fatal(err)
	}
	_, st1DH, err := wholeAlltoAll(A2A1DH, data, g)
	if err != nil {
		t.Fatal(err)
	}
	if st2DH.InterMessages >= stDirect.InterMessages {
		t.Fatalf("2DH inter messages %d should undercut direct %d", st2DH.InterMessages, stDirect.InterMessages)
	}
	if st1DH.InterMessages >= stDirect.InterMessages {
		t.Fatalf("1DH inter messages %d should undercut direct %d", st1DH.InterMessages, stDirect.InterMessages)
	}
	// Same inter-node payload has to cross the network either way.
	if st2DH.InterVolume != stDirect.InterVolume {
		t.Fatalf("2DH inter volume %v != direct %v", st2DH.InterVolume, stDirect.InterVolume)
	}
	// Hierarchical algorithms pay with intra-node traffic.
	if st2DH.IntraVolume <= stDirect.IntraVolume {
		t.Fatalf("2DH should add intra-node traffic (%v vs %v)", st2DH.IntraVolume, stDirect.IntraVolume)
	}
}

func TestAlltoAllSingleNodeIsAllIntra(t *testing.T) {
	r := xrand.New(4)
	data := randWorld(r, 4, 8)
	_, st, err := wholeAlltoAll(A2ADirect, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.InterMessages != 0 || st.InterVolume != 0 {
		t.Fatalf("single-node A2A crossed nodes: %+v", st)
	}
}

func TestAlltoAllErrors(t *testing.T) {
	if _, _, err := wholeAlltoAll(A2ADirect, randWorld(xrand.New(1), 3, 4), 0); err == nil {
		t.Fatal("expected error: 4 elements not divisible into 3 blocks")
	}
	if _, _, err := wholeAlltoAll(A2A2DH, randWorld(xrand.New(1), 4, 4), 3); err == nil {
		t.Fatal("expected error: 4 ranks not divisible into nodes of 3")
	}
	if _, _, err := wholeAlltoAll("bogus", randWorld(xrand.New(1), 2, 2), 0); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

// benchWholeAlltoAll times whole-block AlltoAlls among 16 ranks in nodes of
// 4, into one result buffer reused across iterations.
func benchWholeAlltoAll(b *testing.B, algo A2AAlgo) {
	const p, blk = 16, 64
	data := randWorld(xrand.New(1), p, p*blk)
	out := nanBuffers(p, p*blk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AlltoAllRows(algo, data, out, 4, BlockDims{Rows: 1, Width: blk}, RowRange{Lo: 0, Hi: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectAlltoAll16(b *testing.B) { benchWholeAlltoAll(b, A2ADirect) }
func Benchmark2DHAlltoAll16(b *testing.B)    { benchWholeAlltoAll(b, A2A2DH) }
