package moe

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// onlyExpert hides the staged contract, leaving a plain Expert the layer
// adapts, so the two code paths can be compared.
type onlyExpert struct{ inner Expert }

func (o onlyExpert) Name() string     { return o.inner.Name() }
func (o onlyExpert) Params() []*Param { return o.inner.Params() }
func (o onlyExpert) Forward(x *tensor.Tensor) (*tensor.Tensor, ExpertCache) {
	return o.inner.Forward(x)
}
func (o onlyExpert) Backward(c ExpertCache, dy *tensor.Tensor) *tensor.Tensor {
	return o.inner.Backward(c, dy)
}
func (o onlyExpert) FwdMACs(n int) float64 { return o.inner.FwdMACs(n) }
func (o onlyExpert) ParamBytes() float64   { return o.inner.ParamBytes() }

func testLayer(t *testing.T, wrap bool) (*MOELayer, []*GPTFFN) {
	t.Helper()
	const m, e, topK = 32, 8, 2
	rng := xrand.New(5)
	gate, err := NewGShardGate(GateConfig{Experts: e, TopK: topK, Factor: 1.25}, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	ffns := make([]*GPTFFN, e)
	exps := make([]Expert, e)
	for i := range exps {
		f, err := NewGPTFFN(m, 64, rng)
		if err != nil {
			t.Fatal(err)
		}
		ffns[i] = f
		if wrap {
			exps[i] = onlyExpert{f}
		} else {
			exps[i] = f
		}
	}
	layer, err := NewMOELayer(LayerConfig{M: m, Gate: gate, Order: TutelOrder{}, Experts: exps})
	if err != nil {
		t.Fatal(err)
	}
	return layer, ffns
}

// TestParallelExpertsBitIdentical is the acceptance check for the parallel
// expert loop: forward outputs, input gradients and every parameter
// gradient must be bit-identical at any worker-pool width, because
// parallelism shards whole experts (and whole GEMM rows) without
// reordering any single element's accumulation.
func TestParallelExpertsBitIdentical(t *testing.T) {
	defer tensor.SetWorkers(0)
	x := tensor.RandN(xrand.New(9), 1, 64, 32)
	dy := tensor.RandN(xrand.New(10), 1, 64, 32)

	type snapshot struct {
		y, dx *tensor.Tensor
		grads []*tensor.Tensor
	}
	run := func(workers int) snapshot {
		tensor.SetWorkers(workers)
		layer, _ := testLayer(t, false)
		y, cache, err := layer.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		layer.ZeroGrad()
		dx, err := layer.Backward(cache, dy)
		if err != nil {
			t.Fatal(err)
		}
		var grads []*tensor.Tensor
		for _, p := range layer.Params() {
			grads = append(grads, p.G.Clone())
		}
		return snapshot{y: y, dx: dx, grads: grads}
	}

	seq := run(1)
	for _, w := range []int{2, 4, 8} {
		par := run(w)
		if par.y.MaxAbsDiff(seq.y) != 0 {
			t.Fatalf("workers=%d: forward output not bit-identical", w)
		}
		if par.dx.MaxAbsDiff(seq.dx) != 0 {
			t.Fatalf("workers=%d: input gradient not bit-identical", w)
		}
		for i := range seq.grads {
			if par.grads[i].MaxAbsDiff(seq.grads[i]) != 0 {
				t.Fatalf("workers=%d: param grad %d not bit-identical", w, i)
			}
		}
	}
}

// TestSharedExpertInstanceRunsSequentially pins the compatibility rule for
// legacy custom layers: the same Expert instance registered at several
// indices (weight tying) must not race — the layer detects the aliasing
// and serializes, so gradients accumulate exactly as in the sequential era.
func TestSharedExpertInstanceRunsSequentially(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(8)
	const m, e = 16, 4
	rng := xrand.New(2)
	gate, err := NewGShardGate(GateConfig{Experts: e, TopK: 1, Factor: 2}, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewGPTFFN(m, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	exps := make([]Expert, e)
	for i := range exps {
		exps[i] = shared
	}
	layer, err := NewMOELayer(LayerConfig{M: m, Gate: gate, Order: TutelOrder{}, Experts: exps})
	if err != nil {
		t.Fatal(err)
	}
	if !layer.seqExperts {
		t.Fatal("aliased expert list not detected")
	}
	x := tensor.RandN(xrand.New(3), 1, 24, m)
	y, cache, err := layer.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	layer.ZeroGrad()
	if _, err := layer.Backward(cache, y); err != nil {
		t.Fatal(err)
	}
}

// reresolve re-runs NewMOELayer's resolution of the expert list, for tests
// that swap experts of an assembled layer.
func reresolve(l *MOELayer) { l.staged, l.plain = resolveStaged(l.cfg.Experts) }

// TestStagedMatchesAdapter verifies a staged expert and the same expert
// behind the plain-Expert adapter produce bit-identical results for
// identically initialized layers.
func TestStagedMatchesAdapter(t *testing.T) {
	x := tensor.RandN(xrand.New(9), 1, 64, 32)
	dy := tensor.RandN(xrand.New(10), 1, 64, 32)

	fast, fastF := testLayer(t, false)
	slow, slowF := testLayer(t, true)

	yf, cf, err := fast.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	ys, cs, err := slow.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if yf.MaxAbsDiff(ys) != 0 {
		t.Fatal("staged path and adapter path forward outputs differ")
	}
	fast.ZeroGrad()
	slow.ZeroGrad()
	dxf, err := fast.Backward(cf, dy)
	if err != nil {
		t.Fatal(err)
	}
	dxs, err := slow.Backward(cs, dy)
	if err != nil {
		t.Fatal(err)
	}
	if dxf.MaxAbsDiff(dxs) != 0 {
		t.Fatal("staged path and adapter path input gradients differ")
	}
	for i := range fastF {
		for j, p := range fastF[i].Params() {
			if p.G.MaxAbsDiff(slowF[i].Params()[j].G) != 0 {
				t.Fatalf("expert %d param %s gradient differs between paths", i, p.Name)
			}
		}
	}
}

// shortExpert returns one row fewer than its block from Forward, or — when
// late — only from Backward.
type shortExpert struct {
	onlyExpert
	late bool
}

func (s shortExpert) Forward(x *tensor.Tensor) (*tensor.Tensor, ExpertCache) {
	y, c := s.inner.Forward(x)
	if !s.late {
		y = y.Slice(0, y.Dim(0)-1)
	}
	return y, c
}

func (s shortExpert) Backward(c ExpertCache, dy *tensor.Tensor) *tensor.Tensor {
	dx := s.inner.Backward(c, dy)
	return dx.Slice(0, dx.Dim(0)-1)
}

// TestAdapterRejectsShortResult: a custom expert returning n−1 rows used to
// be copied over a prefix of its block, the last row left stale. The adapter
// panics instead, naming the expert, its index, the op and both shapes —
// through the sequential layer and through a 2-rank World whose plan runs on
// the caller's goroutine.
func TestAdapterRejectsShortResult(t *testing.T) {
	const m = 16
	x := tensor.RandN(xrand.New(71), 1, 24, m)
	for _, late := range []bool{false, true} {
		rng := xrand.New(7)
		gate, err := NewGShardGate(GateConfig{Experts: 2, TopK: 1, Factor: 1.5}, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		exps := make([]Expert, 2)
		for i := range exps {
			f, err := NewGPTFFN(m, 8, rng)
			if err != nil {
				t.Fatal(err)
			}
			exps[i] = onlyExpert{f}
		}
		exps[1] = shortExpert{onlyExpert{exps[1]}, late}
		layer, err := NewMOELayer(LayerConfig{M: m, Gate: gate, Order: TutelOrder{}, Experts: exps})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(layer, WorldConfig{Ranks: 2, ChunksFwd: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.SetSequential(true)
		for name, pass := range map[string]func() error{
			"layer": func() error {
				y, c, err := layer.Forward(x, false)
				if err == nil {
					_, err = layer.Backward(c, y)
				}
				return err
			},
			"world": func() error {
				y, c, err := w.Forward(x, false)
				if err == nil {
					_, err = w.Backward(c, y)
				}
				return err
			},
		} {
			op := "Forward"
			if late {
				op = "Backward"
			}
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				return fmt.Sprint("no panic, error ", pass())
			}()
			head, shapes, _ := strings.Cut(msg, " returned ")
			var got, block int
			if _, err := fmt.Sscanf(shapes, "Tensor[%d 16] for a block of shape [%d 16]", &got, &block); err != nil ||
				got != block-1 || !strings.HasSuffix(head, "expert 1 (gpt-ffn) "+op) {
				t.Fatalf("%s, short %s: %q does not name the expert, its index, the op and both shapes (%v)", name, op, msg, err)
			}
		}
	}
}
