package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestDegreePicksPinned pins Algorithm 1's picks: the degree R and the bits
// of its predicted t_moe over 5 000 seeded randVols draws (random tgar and
// phase, rMax 16), and the grid's (G, R) over 2 000 hybridVolsFor draws. A
// change to how the degree is searched must leave both hashes alone; a
// change to the model itself moves them, once, and says so.
func TestDegreePicksPinned(t *testing.T) {
	m := testModels()
	draw := func(r *xrand.RNG) (float64, Phase) {
		tgar := 0.0
		if r.Float64() < 0.5 {
			tgar = r.Range(0, 20)
		}
		phase := Forward
		if r.Float64() < 0.5 {
			phase = Backward
		}
		return tgar, phase
	}
	put := func(h interface{ Write([]byte) (int, error) }, xs ...uint64) {
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}

	deg := fnv.New64a()
	r := xrand.New(1)
	for i := 0; i < 5000; i++ {
		v := randVols(r)
		tgar, phase := draw(r)
		d := m.FindOptimalPipelineDegree(v, tgar, phase, 16)
		put(deg, uint64(d.R), math.Float64bits(d.TMoE))
	}

	grid := fnv.New64a()
	r = xrand.New(2)
	groups := []int{1, 2, 4, 8}
	for i := 0; i < 2000; i++ {
		volsFor := hybridVolsFor(r)
		tgar, phase := draw(r)
		g := m.FindOptimalPipelineGrid(groups, volsFor, tgar, phase, 16)
		put(grid, uint64(g.G), uint64(g.R), math.Float64bits(g.TMoE))
	}

	got := fmt.Sprintf("%016x %016x", deg.Sum64(), grid.Sum64())
	if want := "9fdd2058eb06a384 3929aa15bf52379c"; got != want {
		t.Fatalf("Algorithm 1 picks moved: degree, grid hashes %s, want %s", got, want)
	}
}
