package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topology"
	"repro/internal/xrand"
)

func testModels() Models { return ModelsFromCluster(topology.TestbedA()) }

// randVols draws volumes in the range the Table 4 grid induces on the two
// testbeds. NAG ≈ NRS, as for real ESP collectives — the assumption §4.2
// states ("AllGather and ReduceScatter require similar durations") and the
// closed forms rely on.
func randVols(r *xrand.RNG) Volumes {
	gemms := 2
	if r.Float64() < 0.5 {
		gemms = 3
	}
	esp := r.Range(5e5, 6e7)
	return Volumes{
		NA2A:      r.Range(5e5, 6e7),
		NAG:       esp,
		NRS:       esp * r.Range(0.95, 1.05),
		ExpMACs:   r.Range(1e8, 4e11),
		ExpGEMMs:  gemms,
		DenseFwd:  r.Range(0.2, 6),
		DenseBwd:  r.Range(0.4, 12),
		GradBytes: r.Range(1e5, 2e8),
	}
}

func TestCaseClassificationExhaustive(t *testing.T) {
	m := testModels()
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		v := randVols(r)
		tgar := r.Range(0, 30)
		for ri := 1; ri <= 16; ri++ {
			if m.Classify(v, tgar, Backward, float64(ri)) == CaseUnknown {
				return false
			}
			if m.Classify(v, tgar, Forward, float64(ri)) == CaseUnknown {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCaseTimeUnknownIsInf(t *testing.T) {
	m := testModels()
	v := randVols(xrand.New(1))
	if !math.IsInf(m.CaseTime(CaseUnknown, v, 0, Forward, 1), 1) {
		t.Fatal("unknown case should cost +Inf")
	}
}

// TestAlgorithm1MatchesExhaustive: Algorithm 1 must return exactly the
// cell a brute-force scan of the piecewise objective finds over the
// integer degrees in [1, rMax] — the smallest degree on ties — with the
// time and the case the closed form gives at that degree.
func TestAlgorithm1MatchesExhaustive(t *testing.T) {
	m := testModels()
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		v := randVols(r)
		tgar := 0.0
		if r.Float64() < 0.5 {
			tgar = r.Range(0, 20)
		}
		phase := Forward
		if r.Float64() < 0.5 {
			phase = Backward
		}
		rMax := 1 + int(r.Uint64()%uint64(MaxPipelineDegree))
		wantR, wantT := 0, math.Inf(1)
		for d := 1; d <= rMax; d++ {
			c := m.Classify(v, tgar, phase, float64(d))
			if t := m.CaseTime(c, v, tgar, phase, float64(d)); t < wantT {
				wantR, wantT = d, t
			}
		}
		alg := m.FindOptimalPipelineDegree(v, tgar, phase, rMax)
		return alg.R == wantR && alg.TMoE == wantT &&
			alg.Case == m.Classify(v, tgar, phase, float64(wantR))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithm1DegreeNearDESOptimal: the degree Algorithm 1 picks must be
// near-optimal on the actual discrete-event schedule, not just on its own
// closed form — the end-to-end soundness check.
func TestAlgorithm1DegreeNearDESOptimal(t *testing.T) {
	m := testModels()
	ss := streamsFor(SystemFSMoE)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		v := randVols(r)
		alg := m.FindOptimalPipelineDegree(v, 0, Forward, 16)
		desAt := func(ri int) float64 {
			g := newGraphForward(m, v, ri, ss)
			return g.Run().Makespan
		}
		tAlg := desAt(alg.R)
		best := math.Inf(1)
		for ri := 1; ri <= 16; ri++ {
			if tb := desAt(ri); tb < best {
				best = tb
			}
		}
		return tAlg <= best*1.10+1e-9 // within 10% of the DES optimum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOlpMoENonNegative(t *testing.T) {
	m := testModels()
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		v := randVols(r)
		for ri := 1; ri <= 16; ri++ {
			if m.TOlpMoE(v, Backward, float64(ri)) < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFig4CasesReachable drives one hand-built configuration into each of
// the four regimes of Fig. 4.
func TestFig4CasesReachable(t *testing.T) {
	m := testModels()
	cases := []struct {
		name string
		v    Volumes
		tgar float64
		want ScheduleCase
	}{
		{
			// Huge gradient: inter-node communication dominates.
			name: "case1",
			v:    Volumes{NA2A: 2e7, NAG: 1e6, NRS: 1e6, ExpMACs: 1e9, ExpGEMMs: 2},
			tgar: 200,
			want: Case1,
		},
		{
			// Massive experts, modest comm: compute dominates.
			name: "case2",
			v:    Volumes{NA2A: 2e6, NAG: 1e6, NRS: 1e6, ExpMACs: 8e11, ExpGEMMs: 2},
			tgar: 0,
			want: Case2,
		},
		{
			// Big AlltoAll, small everything else.
			name: "case3",
			v:    Volumes{NA2A: 6e7, NAG: 1e6, NRS: 1e6, ExpMACs: 1e9, ExpGEMMs: 2},
			tgar: 0,
			want: Case3,
		},
		{
			// Intra-node collectives dominate (slow PCIe regime).
			name: "case4",
			v:    Volumes{NA2A: 1e6, NAG: 8e7, NRS: 8e7, ExpMACs: 1e9, ExpGEMMs: 2},
			tgar: 0,
			want: Case4,
		},
	}
	// Classify at the paper's illustrative degree r=2 (Fig. 4); at r=1 the
	// 2(r-1) pipeline terms vanish and every config degenerates to
	// Case 1/2.
	for _, c := range cases {
		got := m.Classify(c.v, c.tgar, Backward, 2)
		if got != c.want {
			t.Errorf("%s: classified %v at r=2, want %v", c.name, got, c.want)
		}
	}
}

// TestForwardBackwardDegreesCanDiffer reproduces the §2.3 motivation: the
// backward pass doubles expert compute, so its optimal degree differs for
// many configurations.
func TestForwardBackwardDegreesCanDiffer(t *testing.T) {
	m := testModels()
	r := xrand.New(99)
	differ := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		v := randVols(r)
		f := m.FindOptimalPipelineDegree(v, 0, Forward, 16)
		b := m.FindOptimalPipelineDegree(v, 0, Backward, 16)
		if f.R != b.R {
			differ++
		}
	}
	// The paper found 912/1458 ≈ 63% differ; our volume distribution need
	// not match exactly, but a substantial fraction must.
	if differ < trials/5 {
		t.Fatalf("only %d/%d configurations have phase-dependent degrees", differ, trials)
	}
}

func TestDegreeBounds(t *testing.T) {
	m := testModels()
	r := xrand.New(5)
	for i := 0; i < 50; i++ {
		v := randVols(r)
		res := m.FindOptimalPipelineDegree(v, 0, Forward, 8)
		if res.R < 1 || res.R > 8 {
			t.Fatalf("degree %d outside [1,8]", res.R)
		}
	}
}

func TestDegreeDegenerateVolumes(t *testing.T) {
	m := testModels()
	v := Volumes{ExpGEMMs: 2} // everything zero
	res := m.FindOptimalPipelineDegree(v, 0, Forward, 16)
	if res.R != 1 {
		t.Fatalf("zero volumes should pick r=1, got %d", res.R)
	}
}

func TestBackwardExpertTimeDoubles(t *testing.T) {
	m := testModels()
	v := Volumes{NA2A: 1e6, NAG: 1e6, NRS: 1e6, ExpMACs: 1e10, ExpGEMMs: 2}
	fw := m.TExp(v, 1, Forward)
	bw := m.TExp(v, 1, Backward)
	if math.Abs(bw-2*fw) > 1e-9 {
		t.Fatalf("backward expert time %v, want 2×%v", bw, fw)
	}
}
