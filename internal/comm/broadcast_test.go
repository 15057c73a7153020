package comm

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func bcastBuffers(p, n int, root int) [][]float64 {
	data := make([][]float64, p)
	for r := range data {
		data[r] = make([]float64, n)
		for i := range data[r] {
			if r == root {
				data[r][i] = float64(root*1000 + i)
			} else {
				data[r][i] = -1 // sentinel: must be overwritten
			}
		}
	}
	return data
}

func TestBroadcast(t *testing.T) {
	const p, n = 4, 6
	for root := 0; root < p; root++ {
		data := bcastBuffers(p, n, root)
		st, err := Broadcast(data, root, 2)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if want := float64(root*1000 + i); data[r][i] != want {
					t.Fatalf("root %d: rank %d elem %d = %v, want %v", root, r, i, data[r][i], want)
				}
			}
		}
		if got := st.IntraMessages + st.InterMessages; got != p-1 {
			t.Fatalf("root %d: %d messages, want %d", root, got, p-1)
		}
		if got := st.IntraVolume + st.InterVolume; got != float64((p-1)*n) {
			t.Fatalf("root %d: volume %v, want %v", root, got, float64((p-1)*n))
		}
	}
}

// TestBroadcastProperty: over random rank counts, buffer lengths, roots and
// node widths, every rank ends with the root's bytes, the root's own buffer
// unchanged, and the Stats are p−1 messages of the whole buffer (none of an
// empty one), each hop src → src+1 counted intra-node exactly when both
// ranks sit on one node of g.
func TestBroadcastProperty(t *testing.T) {
	rng := xrand.New(4242)
	for trial := 0; trial < 200; trial++ {
		p := []int{1, 2, 3, 4, 8}[int(rng.Uint64()%5)]
		n := int(rng.Uint64() % 200)
		g := []int{0, 1, 2, 3, p}[int(rng.Uint64()%5)]
		root := int(rng.Uint64() % uint64(p))
		ref := randRanks(uint64(trial), p, n)
		got := cloneRanks(ref)
		st, err := Broadcast(got, root, g)
		if err != nil {
			t.Fatal(err)
		}
		var want Stats
		for hop := 0; hop < p-1 && n > 0; hop++ {
			src := (root + hop) % p
			if dst := (src + 1) % p; g > 0 && src/g == dst/g {
				want.IntraMessages++
				want.IntraVolume += float64(n)
			} else {
				want.InterMessages++
				want.InterVolume += float64(n)
			}
		}
		if msgs, vol := st.IntraMessages+st.InterMessages, st.IntraVolume+st.InterVolume; st != want ||
			vol != float64((p-1)*n) || (n > 0 && msgs != p-1) {
			t.Fatalf("trial %d (p=%d n=%d g=%d root %d): stats %+v, want %+v: %d messages, volume %v", trial, p, n, g, root, st, want, msgs, vol)
		}
		for r := range got {
			for k := range got[r] {
				if math.Float64bits(got[r][k]) != math.Float64bits(ref[root][k]) {
					t.Fatalf("trial %d (p=%d n=%d root %d): rank %d elem %d = %v, root's %v", trial, p, n, root, r, k, got[r][k], ref[root][k])
				}
			}
		}
	}
}

func TestBroadcastNodeAccounting(t *testing.T) {
	// p=4, g=2, root=0: ring hops 0→1 (intra), 1→2 (inter), 2→3 (intra).
	data := bcastBuffers(4, 3, 0)
	st, err := Broadcast(data, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.IntraMessages != 2 || st.InterMessages != 1 {
		t.Fatalf("intra/inter = %d/%d, want 2/1", st.IntraMessages, st.InterMessages)
	}
}

func TestBroadcastErrors(t *testing.T) {
	if _, err := Broadcast(nil, 0, 1); err == nil {
		t.Fatal("no ranks must error")
	}
	if _, err := Broadcast([][]float64{{1}, {2, 3}}, 0, 1); err == nil {
		t.Fatal("ragged buffers must error")
	}
	if _, err := Broadcast([][]float64{{1}, {2}}, 2, 1); err == nil {
		t.Fatal("out-of-range root must error")
	}
}
