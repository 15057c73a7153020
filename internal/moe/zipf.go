package moe

import (
	"math"
	"slices"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// ZipfGate routes tokens to experts drawn from a Zipf distribution over
// expert rank — p(e) ∝ 1/(e+1)^s — independent of the input. It is a
// measurement gate, not a trainable one: real MoE gates converge to
// heavily skewed expert popularity (the imbalance FlexMoE re-places
// experts to fix), and this gate reproduces that skew deterministically so
// telemetry and load-balancing mechanisms can be exercised with a known
// ground-truth distribution. Routing depends only on (seed, token index):
// repeated Route calls — and separately built stacks in a strategy
// comparison — see bit-identical plans.
type ZipfGate struct {
	cfg  GateConfig
	m    int
	seed uint64
	cdf  []float64  // cumulative p(e), strictly increasing to 1
	idle *zipfCache // routing scratch between a Backward and the next Route
}

// zipfCache is the gate's routing scratch (routing): sel holds each token's
// drawn experts and their equal weights.
type zipfCache struct{ routing }

// NewZipfGate constructs the gate for embedding size m with skew exponent
// s (s = 0 degenerates to uniform routing; larger s concentrates load on
// low-indexed experts; s ≈ 1 is the classic Zipf popularity curve).
func NewZipfGate(cfg GateConfig, m int, s float64, seed uint64) (*ZipfGate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s < 0 {
		s = 0
	}
	cdf := make([]float64, cfg.Experts)
	total := 0.0
	for e := 0; e < cfg.Experts; e++ {
		total += 1 / math.Pow(float64(e+1), s)
		cdf[e] = total
	}
	for e := range cdf {
		cdf[e] /= total
	}
	return &ZipfGate{cfg: cfg, m: m, seed: seed, cdf: cdf}, nil
}

// Name implements Gate.
func (g *ZipfGate) Name() string { return "zipf" }

// Params implements Gate (the gate is parameter-free).
func (g *ZipfGate) Params() []*Param { return nil }

// Route implements Gate. Each token draws TopK distinct experts from the
// Zipf popularity distribution with equal combine weights 1/TopK. The plan
// and the RouteCache are the gate's routing scratch (routing), valid until
// the next Route after their Backward.
func (g *ZipfGate) Route(x *tensor.Tensor, train bool) (*DispatchPlan, *RouteCache, error) {
	if err := checkGateInput(x, g.m); err != nil {
		return nil, nil, err
	}
	n, e, k := x.Dim(0), g.cfg.Experts, g.cfg.TopK
	cache := g.idle
	g.idle = nil
	if cache == nil {
		cache = &zipfCache{}
	}
	cache.begin(x, cache)
	rng := xrand.New(g.seed) // re-seeded per Route: routing is a pure function
	w := 1 / float64(k)
	c := &cache.sel
	c.k, c.idx, c.asg = k, grow(c.idx, n*k), c.asg[:0]
	for t := 0; t < n; t++ {
		chosen := c.idx[t*k : t*k]
		for len(chosen) < k {
			idx := g.draw(rng)
			if slices.Contains(chosen, idx) {
				// Duplicate draw: walk to the nearest unchosen expert so the
				// loop terminates even under extreme skew.
				for d := 1; d < e; d++ {
					if up := (idx + d) % e; !slices.Contains(chosen, up) {
						idx = up
						break
					}
					if down := (idx - d + e) % e; !slices.Contains(chosen, down) {
						idx = down
						break
					}
				}
			}
			chosen = append(chosen, idx)
		}
		for j, idx := range chosen {
			c.asg = append(c.asg, assignment{token: t, expert: idx, weight: w, choice: j})
		}
	}
	plan := cache.pack(e, CapacityFor(n, e, k, g.cfg.Factor), c.asg)
	return plan, &cache.rc, nil
}

// draw samples one expert index from the Zipf CDF.
func (g *ZipfGate) draw(rng *xrand.RNG) int {
	u := rng.Float64()
	for e, c := range g.cdf {
		if u <= c {
			return e
		}
	}
	return len(g.cdf) - 1
}

// reclaim implements scratchGate.
func (g *ZipfGate) reclaim(rc *RouteCache) { g.idle = rc.extra.(*zipfCache) }

// Backward implements Gate: routing ignores x, so the gradient through the
// gate is zero and there are no parameters to accumulate into.
func (g *ZipfGate) Backward(dx *tensor.Tensor, rc *RouteCache, grad *PlanGrad) {
	dx.Zero()
	g.idle = rc.extra.(*zipfCache)
}
