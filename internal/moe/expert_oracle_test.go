package moe

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// The oracle is each FFN's monolithic forward and backward as they were
// while the layer called them whole (ForwardInto/BackwardInto) — the bodies
// are kept here, for the tests only — so the staged contract can be held to
// them bit for bit: same output, input gradient and parameter gradients
// whatever the column sharding, the row tiling and the worker width.

type oracleCache struct{ x, h, a, g, u *tensor.Tensor }

func (f *GPTFFN) oracleForward(x, out *tensor.Tensor) *oracleCache {
	n := x.Dim(0)
	h := tensor.New(n, f.h)
	tensor.MatMulInto(h, x, f.w1.W)
	tensor.AddRowVectorInPlace(h, f.b1.W)
	a := tensor.New(n, f.h)
	tensor.GeLUInto(a, h)
	tensor.MatMulInto(out, a, f.w2.W)
	tensor.AddRowVectorInPlace(out, f.b2.W)
	return &oracleCache{x: x, h: h, a: a}
}

func (f *GPTFFN) oracleBackward(c *oracleCache, dy, dx *tensor.Tensor, grads GradDst) {
	// y = a·W2 + b2; a = GeLU(h): fold the activation gradient into da in place.
	da := tensor.New(dy.Dim(0), f.h)
	tensor.MatMulT2Into(da, dy, f.w2.W)
	hd := c.h.Data()
	dd := da.Data()
	for i := range dd {
		dd[i] *= tensor.GeLUGrad(hd[i])
	}
	grads.weight(nil, 2, f.w2, c.a, dy)
	grads.bias(3, f.b2, dy)
	grads.weight(nil, 0, f.w1, c.x, da)
	grads.bias(1, f.b1, da)
	// h = x·W1 + b1.
	tensor.MatMulT2Into(dx, da, f.w1.W)
}

func (f *MixtralFFN) oracleForward(x, out *tensor.Tensor) *oracleCache {
	n := x.Dim(0)
	g := tensor.New(n, f.h)
	tensor.MatMulInto(g, x, f.w1.W)
	u := tensor.New(n, f.h)
	tensor.MatMulInto(u, x, f.w3.W)
	a := tensor.New(n, f.h)
	tensor.SiLUInto(a, g)
	p := tensor.New(n, f.h)
	tensor.MulInto(p, a, u)
	tensor.MatMulInto(out, p, f.w2.W)
	return &oracleCache{x: x, g: g, u: u, a: a}
}

func (f *MixtralFFN) oracleBackward(c *oracleCache, dy, dx *tensor.Tensor, grads GradDst) {
	n := dy.Dim(0)
	dp := tensor.New(n, f.h)
	tensor.MatMulT2Into(dp, dy, f.w2.W)
	da := tensor.New(n, f.h)
	tensor.MulInto(da, dp, c.u)
	du := tensor.New(n, f.h)
	tensor.MulInto(du, dp, c.a)
	// a = SiLU(g): fold the activation gradient into da in place.
	gd := c.g.Data()
	dd := da.Data()
	for i := range dd {
		dd[i] *= tensor.SiLUGrad(gd[i])
	}
	p := dp // reuse: dp is dead once da and du exist
	tensor.MulInto(p, c.a, c.u)
	grads.weight(nil, 1, f.w2, p, dy)
	grads.weight(nil, 0, f.w1, c.x, da)
	grads.weight(nil, 2, f.w3, c.x, du)
	tensor.MatMulT2Into(dx, da, f.w1.W)
	dxu := tensor.New(n, f.m)
	tensor.MatMulT2Into(dxu, du, f.w3.W)
	tensor.AddInPlace(dx, dxu)
}

// oracleFFN is what both built-in experts offer the comparison.
type oracleFFN interface {
	Expert
	oracleForward(x, out *tensor.Tensor) *oracleCache
	oracleBackward(c *oracleCache, dy, dx *tensor.Tensor, grads GradDst)
}

// tiling cuts [0, n) into disjoint window sets of uneven shape, some empty,
// in shuffled order — a pass's chunks arrive as strided sets, a few rows of
// each token-side shard at once, not in row order. A drawn stride s splits
// the rows of the whole s-row blocks into offset ranges, each covered in
// every block by one set or by two that split the blocks between them; the
// rows past the last whole block are single windows.
func tiling(rng *xrand.RNG, n int) []tensor.Windows {
	s := 1 + rng.Intn(n)
	q := n / s
	var sets []tensor.Windows
	for o := 0; o < s && q > 0; {
		hi := min(s, o+1+rng.Intn(s/2+1))
		c := rng.Intn(q + 1)
		if c > 0 {
			sets = append(sets, tensor.Windows{Lo: o, N: hi - o, Stride: s, Count: c})
		}
		if c < q {
			sets = append(sets, tensor.Windows{Lo: c*s + o, N: hi - o, Stride: s, Count: q - c})
		}
		o = hi
	}
	for lo := q * s; lo < n; {
		hi := min(n, lo+1+rng.Intn(n/3+1))
		sets = append(sets, tensor.Window(lo, hi-lo))
		lo = hi
	}
	sets = append(sets, tensor.Window(n, 0))
	out := make([]tensor.Windows, len(sets))
	for i, k := range rng.Perm(len(sets)) {
		out[i] = sets[k]
	}
	return out
}

// holdTo fails the test unless got equals the oracle's want bit for bit.
func holdTo(t *testing.T, label string, want, got *tensor.Tensor) {
	t.Helper()
	if err := sameBits(got.Data(), want.Data()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// exchange assembles every member's exchange buffer from the members' own
// column shards by plain copies: the AllGather, without a collective.
func exchange(bufs []*tensor.Tensor, g int) {
	w := bufs[0].Dim(1)
	for src := range bufs {
		cl, ch := colShard(w, src, g)
		for dst := range bufs {
			for r := 0; dst != src && r < bufs[src].Dim(0); r++ {
				copy(bufs[dst].Row(r)[cl:ch], bufs[src].Row(r)[cl:ch])
			}
		}
	}
}

// checkStagedTiling drives one expert through the staged contract as g
// members with uneven shuffled row tilings on a pool of the given width —
// exchange buffers start as NaN, so a stage reading a column nobody wrote
// shows — and holds every member's output and input gradient, and the
// parameter gradients of owner's Finish, to the oracle. into selects
// overwritten gradient destinations instead of adding to a dirty Param.G.
func checkStagedTiling(t *testing.T, seed uint64, n, m, h, g, width, owner int, mixtral, into bool) {
	t.Helper()
	label := fmt.Sprintf("seed=%d n=%d M=%d H=%d g=%d width=%d owner=%d mixtral=%v into=%v", seed, n, m, h, g, width, owner, mixtral, into)
	rng := xrand.New(seed)
	var f oracleFFN
	var err error
	if mixtral {
		f, err = NewMixtralFFN(m, h, rng)
	} else {
		f, err = NewGPTFFN(m, h, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	x, dy := tensor.RandN(rng, 1, n, m), tensor.RandN(rng, 1, n, m)
	// Param.G starts dirty: a nil GradDst adds to it, a non-nil one leaves it.
	dirty := make([]*tensor.Tensor, len(f.Params()))
	dsts := func() GradDst {
		if !into {
			return nil
		}
		d := make(GradDst, len(dirty))
		for i, p := range f.Params() {
			d[i] = nanTensor(p.G.Shape()...)
		}
		return d
	}
	for i, p := range f.Params() {
		dirty[i] = tensor.RandN(rng, 1, p.G.Shape()...)
		copy(p.G.Data(), dirty[i].Data())
	}

	wantY, wantDx, wantG := tensor.New(n, m), tensor.New(n, m), dsts()
	f.oracleBackward(f.oracleForward(x, wantY), dy, wantDx, wantG)
	if !into {
		wantG = make(GradDst, len(dirty))
		for i, p := range f.Params() {
			wantG[i] = p.G.Clone()
			copy(p.G.Data(), dirty[i].Data())
		}
	}

	pool := tensor.NewPool(width)
	defer pool.Close()
	passes := make([]ExpertPass, g)
	hf, hb := make([]*tensor.Tensor, g), make([]*tensor.Tensor, g)
	ys, dxs := make([]*tensor.Tensor, g), make([]*tensor.Tensor, g)
	gotG := dsts()
	for k := range passes {
		cl, ch := colShard(h, k, g)
		hf[k], hb[k] = nanTensor(f.FwdBands()*n, h), nanTensor(f.BwdBands()*n, h)
		ys[k], dxs[k] = nanTensor(n, m), nanTensor(n, m)
		scratch := make([]float64, f.ScratchElems(n, cl, ch))
		for i := range scratch {
			scratch[i] = math.NaN()
		}
		passes[k] = f.Begin(PassBufs{X: x, Out: ys[k], Hidden: hf[k], Scratch: scratch, Cl: cl, Ch: ch, Pool: pool})
		for _, r := range tiling(rng, n) {
			passes[k].ForwardHidden(r)
		}
	}
	exchange(hf, g)
	for k, ps := range passes {
		for _, r := range tiling(rng, n) {
			ps.ForwardOut(r)
		}
		holdTo(t, fmt.Sprintf("%s: member %d output", label, k), wantY, ys[k])
		ps.BeginBackward(dy, dxs[k], hb[k], gotG)
		for _, r := range tiling(rng, n) {
			ps.BackwardHidden(r)
		}
	}
	exchange(hb, g)
	for k, ps := range passes {
		for _, r := range tiling(rng, n) {
			ps.BackwardIn(r)
		}
		holdTo(t, fmt.Sprintf("%s: member %d input gradient", label, k), wantDx, dxs[k])
	}
	passes[owner].Finish()
	for i, p := range f.Params() {
		got := p.G
		if into {
			got = gotG[i]
			holdTo(t, fmt.Sprintf("%s: Param.G of %s left alone", label, p.Name), dirty[i], p.G)
		}
		holdTo(t, fmt.Sprintf("%s: gradient of %s", label, p.Name), wantG[i], got)
	}
}

// TestStagedMatchesOracle holds the staged contract to the monolithic oracle
// over both FFNs, g ∈ {1, 2, 4} with every member as the finishing owner,
// hidden widths the group does not divide and narrower than the group
// (members owning no column), pool widths 1/2/4, blocks big enough for the
// GEMMs to fan out, and both gradient destinations.
func TestStagedMatchesOracle(t *testing.T) {
	seed := uint64(0)
	for _, mixtral := range []bool{false, true} {
		for _, sh := range []struct{ n, m, h int }{{1, 3, 1}, {7, 5, 2}, {13, 8, 5}, {64, 64, 72}} {
			for _, g := range []int{1, 2, 4} {
				for owner := 0; owner < g; owner++ {
					seed++
					width := 1 << (seed % 3)
					checkStagedTiling(t, seed, sh.n, sh.m, sh.h, g, width, owner, mixtral, seed%2 == 0)
				}
			}
		}
	}
}

// FuzzStagedTiling is TestStagedMatchesOracle over fuzzed shapes, sharding,
// tilings (drawn from the seed) and worker widths.
func FuzzStagedTiling(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(6), uint8(5), uint8(1), uint8(0), false, false)
	f.Add(uint64(2), uint8(17), uint8(4), uint8(3), uint8(2), uint8(3), true, true) // H < g: a member with no column
	f.Add(uint64(3), uint8(70), uint8(64), uint8(66), uint8(1), uint8(2), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, n, m, h, gsel, sel uint8, mixtral, into bool) {
		g := 1 << (gsel % 3)
		checkStagedTiling(t, seed, int(n%96)+1, int(m%64)+1, int(h%80)+1, g, 1<<(sel%3), int(sel)%g, mixtral, into)
	})
}
