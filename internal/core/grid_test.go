package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// hybridVolsFor builds a physically-shaped volsFor for a hybrid sweep:
// the dispatch/combine AlltoAll volume is independent of the group size,
// while the in-group AllGather/ReduceScatter traffic scales with the
// (g-1)/g ring factor plus a hidden-activation exchange term growing with
// the group size.
func hybridVolsFor(r *xrand.RNG) func(g int) Volumes {
	base := randVols(r)
	hidden := r.Range(1e5, 3e7)
	return func(g int) Volumes {
		v := base
		f := float64(g-1) / float64(g)
		v.NAG = base.NAG*f + hidden*f
		v.NRS = base.NRS * f
		return v
	}
}

// TestGridMatchesExhaustive: the 2-D search must return exactly the
// (g, r) cell a brute-force scan of every cell finds under the piecewise
// closed form, the first in groups order and then the smallest degree on
// ties.
func TestGridMatchesExhaustive(t *testing.T) {
	m := testModels()
	groups := []int{1, 2, 4, 8}
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		volsFor := hybridVolsFor(r)
		tgar := 0.0
		if r.Float64() < 0.5 {
			tgar = r.Range(0, 20)
		}
		phase := Forward
		if r.Float64() < 0.5 {
			phase = Backward
		}
		wantG, wantR, wantT := 0, 0, math.Inf(1)
		for _, g := range groups {
			v := volsFor(g)
			if v.Validate() != nil {
				continue
			}
			for d := 1; d <= MaxPipelineDegree; d++ {
				if t := m.PipelineTime(v, tgar, phase, float64(d)); t < wantT {
					wantG, wantR, wantT = g, d, t
				}
			}
		}
		alg := m.FindOptimalPipelineGrid(groups, volsFor, tgar, phase, MaxPipelineDegree)
		return alg.G == wantG && alg.R == wantR && alg.TMoE == wantT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGridDegenerateEdges: with a single candidate group size the grid
// search collapses to the 1-D Algorithm 1 for that size's volumes.
func TestGridDegenerateEdges(t *testing.T) {
	m := testModels()
	for _, g := range []int{1, 4} {
		volsFor := hybridVolsFor(xrand.New(uint64(g) + 7))
		grid := m.FindOptimalPipelineGrid([]int{g}, volsFor, 3, Backward, 16)
		oneD := m.FindOptimalPipelineDegree(volsFor(g), 3, Backward, 16)
		if grid.G != g || grid.R != oneD.R || grid.TMoE != oneD.TMoE {
			t.Fatalf("g=%d: grid %+v vs 1-D %+v", g, grid, oneD)
		}
	}
}

// TestGridPrefersCheaperGroup: when one group size strictly dominates
// (zero in-group traffic vs. heavy in-group traffic at equal AlltoAll
// cost), the grid must pick it.
func TestGridPrefersCheaperGroup(t *testing.T) {
	m := testModels()
	base := randVols(xrand.New(3))
	volsFor := func(g int) Volumes {
		v := base
		if g == 1 {
			v.NAG, v.NRS = 0, 0
		} else {
			v.NAG, v.NRS = base.NAG*10, base.NRS*10
		}
		return v
	}
	got := m.FindOptimalPipelineGrid([]int{1, 4}, volsFor, 0, Forward, 16)
	if got.G != 1 {
		t.Fatalf("grid picked g=%d over the strictly cheaper g=1", got.G)
	}
}

// TestGridSkipsInvalidAndFallsBack: invalid candidate volumes are skipped;
// an entirely invalid set falls back to g=1.
func TestGridSkipsInvalidAndFallsBack(t *testing.T) {
	m := testModels()
	base := randVols(xrand.New(4))
	volsFor := func(g int) Volumes {
		v := base
		if g == 2 {
			v.NA2A = -1 // invalid
		}
		return v
	}
	got := m.FindOptimalPipelineGrid([]int{2, 4}, volsFor, 0, Forward, 16)
	if got.G != 4 {
		t.Fatalf("grid should skip the invalid g=2 cell, picked g=%d", got.G)
	}

	allBad := func(g int) Volumes { v := base; v.ExpGEMMs = 0; return v }
	fb := m.FindOptimalPipelineGrid([]int{2, 4}, allBad, 0, Forward, 16)
	if fb.G != 1 {
		t.Fatalf("fully-invalid grid should fall back to g=1, got g=%d", fb.G)
	}
	empty := m.FindOptimalPipelineGrid(nil, func(int) Volumes { return base }, 0, Forward, 16)
	if empty.G != 1 || empty.R < 1 {
		t.Fatalf("empty candidate set should fall back to g=1: %+v", empty)
	}
}
