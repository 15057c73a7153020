package moe

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// raggedLayer builds a layer of GPT experts (M = 32, H = 48, E = 8) over the
// gate g and the order o.
func raggedLayer(t *testing.T, g Gate, o Order, hooks ...Hooks) *MOELayer {
	t.Helper()
	rng := xrand.New(23)
	exps := make([]Expert, 8)
	for i := range exps {
		ex, err := NewGPTFFN(32, 48, rng)
		if err != nil {
			t.Fatal(err)
		}
		exps[i] = ex
	}
	layer, err := NewMOELayer(LayerConfig{M: 32, Gate: g, Order: o, Experts: exps, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	return layer
}

// holedPlan is a custom plan over 96 tokens, 8 experts of 12 slots, whose
// fills sit at the edges of a ragged layout at R = 4 (3 slot rows per
// token-side rank): expert 0 is full, expert 1 empty, experts 2 and 3 have
// empty slots below their last filled one (2 ahead of its first, 3 between
// two runs), and the others end inside, and at the end of, a rank's shard.
func holedPlan() *DispatchPlan {
	const e, c = 8, 12
	p := &DispatchPlan{Experts: e, Capacity: c}
	fills := [e][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		{},
		{-1, -1, -1, 12, 13, 14, 15},
		{16, 17, 18, 19, 20, -1, 21, 22, 23},
		{24},
		{25, 26, 27},
		{28, 29, 30, 31, 32},
		{33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43},
	}
	for ex, toks := range fills {
		p.SlotToken = append(p.SlotToken, make([]int, c))
		p.SlotWeight = append(p.SlotWeight, make([]float64, c))
		for s := range c {
			p.SlotToken[ex][s] = -1
			if s < len(toks) && toks[s] >= 0 {
				p.SlotToken[ex][s], p.SlotWeight[ex][s] = toks[s], 0.25+0.05*float64(ex)
			}
		}
	}
	return p
}

// lastFilled is one past the last occupied slot of each expert of a plan,
// every slot of a dense one.
func lastFilled(plan *DispatchPlan) []int {
	out := make([]int, plan.Experts)
	for e := range out {
		if plan.IsDense() {
			out[e] = plan.Capacity
			continue
		}
		for s, tok := range plan.SlotToken[e] {
			if tok >= 0 {
				out[e] = s + 1
			}
		}
	}
	return out
}

// commElems is the element count the collectives of one forward and one
// backward pass move at R ranks in groups of g, when token-side rank i's
// shard of expert e holds filled(e, i) of its rows: each AlltoAll moves the
// rows of every shard to a group other than its own rank's (Direct counts
// no rank's rows to itself), four per pass; each in-group ring lands, or
// sums, every shard's rows g−1 times: x, y, dy and dx at width M, and the
// hidden exchange at its bands of width H.
func commElems(ranks, g, experts, m, h, bands int, filled func(e, i int) int) float64 {
	egg := experts * g / ranks
	a2a, ring := 0, 0
	for e := range experts {
		for i := range ranks {
			if i/g != e/egg {
				a2a += filled(e, i)
			}
			ring += filled(e, i)
		}
	}
	return float64(4*m*a2a + (g-1)*(4*m+bands*h)*ring)
}

// TestWorldRaggedEdges holds ragged passes to the oracle, bit for bit, at
// the edges of the router's fill — an expert no token picks, an expert that
// overflows (ZipfGate's skew; fill = C), a custom plan with empty slots
// below an expert's last filled one, and a dense plan whose fill stops short
// of the rank padding — under EP, ESP, Hybrid (g = 2) and DenseSlots at
// R = 4 and pipeline degrees 1 and 2. Workspace memory is poisoned (TestMain),
// so a stage or collective that read a row past the fill fails the check.
// The collectives' Stats must count exactly the filled rows: commElems at
// the plan's fills, and at every row once a combine hook makes the blocks
// whole — the pad rows the plan counts are the difference.
func TestWorldRaggedEdges(t *testing.T) {
	x := tensor.RandN(xrand.New(71), 1, 96, 32)
	dy := tensor.RandN(xrand.New(72), 1, 96, 32)
	zipf, err := NewZipfGate(GateConfig{Experts: 8, TopK: 2, Factor: 1.25}, 32, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	sparse := []Strategy{StrategyEP, StrategyESP, StrategyHybrid}
	cases := []struct {
		name   string
		gate   Gate
		order  Order
		strats []Strategy
		want   func(fill []int, plan *DispatchPlan) bool // the edge the case is for
	}{
		{"zipf", zipf, GShardOrder{}, sparse, func(fill []int, plan *DispatchPlan) bool {
			return plan.Dropped > 0 && fill[0] == plan.Capacity && fill[7] == 0
		}},
		{"holes", planGate{holedPlan()}, TutelOrder{}, sparse, func(fill []int, plan *DispatchPlan) bool {
			return plan.SlotToken[2][0] < 0 && fill[2] == 7 && plan.SlotToken[3][5] < 0 && fill[3] == 9
		}},
		{"dense", nil, TutelOrder{}, []Strategy{StrategyDenseSlots}, func(fill []int, plan *DispatchPlan) bool {
			return plan.IsDense() && plan.Capacity%4 != 0
		}},
	}
	for _, tc := range cases {
		layer := softmoeLayer(t, false, 3)
		if tc.gate != nil {
			layer = raggedLayer(t, tc.gate, tc.order)
		}
		plan, _, err := layer.cfg.Gate.Route(x, false)
		if err != nil {
			t.Fatal(err)
		}
		fill := lastFilled(plan)
		if !tc.want(fill, plan) {
			t.Fatalf("%s: the plan (fills %v, %d dropped) is not the edge case it is for", tc.name, fill, plan.Dropped)
		}
		spad := (plan.Capacity + 3) / 4
		ex := layer.cfg.Experts[0]
		elems := func(g int, filled func(e, i int) int) float64 {
			return commElems(4, g, 8, 32, ex.HiddenWidth(), ex.FwdBands()+ex.BwdBands(), filled)
		}
		ragged := func(e, i int) int { return min(max(fill[e]-i*spad, 0), spad) }
		whole := func(int, int) int { return spad }
		hooked := withHooks(t, layer, Hooks{AfterCombine: func(x *tensor.Tensor) *tensor.Tensor { return x }})

		want := runSequentialLayer(t, layer, x, dy)
		for _, strat := range tc.strats {
			for _, r := range []int{1, 2} {
				label := fmt.Sprintf("%s %s r=%d", tc.name, strat, r)
				cfg := WorldConfig{Ranks: 4, PipelineDegree: r, Strategy: strat}
				g := 1
				switch strat {
				case StrategyHybrid:
					cfg.GroupSize, g = 2, 2
				case StrategyESP:
					g = 4
				}
				for _, run := range []struct {
					layer  *MOELayer
					filled func(e, i int) int
				}{{layer, ragged}, {hooked, whole}} {
					w, err := NewWorld(run.layer, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := runOn(t, w, x, dy)
					compareSnapshots(t, label, want, got)
					st := w.Stats()
					if moved, wantMoved := st.IntraVolume+st.InterVolume, elems(g, run.filled); moved != wantMoved {
						t.Fatalf("%s (hooked %t): collectives moved %v elements, want %v (%v with every row)",
							label, run.layer == hooked, moved, wantMoved, elems(g, whole))
					}
					w.Close()
				}
			}
		}
	}
}

// runOn runs one forward and backward pass of w's layer from zeroed
// gradients.
func runOn(t *testing.T, w *World, x, dy *tensor.Tensor) worldSnapshot {
	t.Helper()
	w.layer.ZeroGrad()
	y, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := w.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	return worldSnapshot{y: y, dx: dx, grads: snapGrads(w.layer)}
}
