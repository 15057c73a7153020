// Package gradsync makes the paper's §5 Gradient-AllReduce executable: it
// takes the parameter gradients a multi-rank backward pass produces, plans
// how many bytes to hide inside each layer's backward pipeline
// (core.PartitionGradients — the FSMoE contribution — or the Lina
// fixed-chunk / no-overlap baselines), and cuts that plan into AllReduce
// slices a stream-plan builder appends to the backward plans, so the slices
// genuinely run in the slack between dispatch/combine chunks on the shared
// inter-node stream.
//
// The package is deliberately ignorant of the MoE layer: a consumer
// registers one LayerSpec per generalized layer (element counts, emit
// points and the §5 byte-accounting volumes) and solves the schedule once
// per distinct (Config, specs) — Solve, then Plan.For on every later step.
// The schedule is data: Hidden(i) lists the slices layer i's backward plan
// runs at each of its emit points, and the rest is the exposed tail. A step
// calls Begin, runs Run(slice) from each AllReduce task, and ends with
// Finish, which runs the tail and any hidden slice whose plan aborted
// before reaching it.
//
// Every gradient element has one contributor, and the parameters live once:
// one copy, stepped in place. So a slice has nothing to sum and nothing to
// copy, and runs only the step's Update (if any) over its elements, once
// each. The byte plan still prices the paper's AllReduce. The bytes do not
// depend on the slicing, so all strategies produce bit-identical buffers and
// Finish may split the tail across the default tensor pool.
package gradsync

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Strategy selects how gradient synchronization is scheduled relative to
// the backward pipeline.
type Strategy string

const (
	// StrategyFSMoE is §5's adaptive partitioning: per-layer hidden byte
	// budgets from core.PartitionGradients (greedy window fill plus the
	// Step-2 stretch assignment).
	StrategyFSMoE Strategy = "fsmoe-adaptive"
	// StrategyFixedChunk is the Lina baseline (§6.4): every pending
	// gradient is launched as fixed-size chunks as soon as it exists,
	// regardless of how much slack the schedule actually has.
	StrategyFixedChunk Strategy = "lina-fixed-chunk"
	// StrategyNoOverlap synchronizes everything sequentially after the
	// whole backward pass — the fully exposed Tutel-style tail.
	StrategyNoOverlap Strategy = "no-overlap"
)

// KindAllReduce is the task kind of emitted AllReduce slices — an alias
// of the canonical sim vocabulary (sim/vocab.go), matching the Table 2
// strings used by the simulator's Gradient-AllReduce rows.
const KindAllReduce = sim.KindAllReduce

// LayerSpec registers one generalized layer with a Plan.
type LayerSpec struct {
	// Elems is the layer's flattened gradient length.
	Elems int
	// Points is how many emit points the layer's backward plan offers: its
	// hidden slices are spread over them round-robin. At least 1.
	Points int
	// V is the §5 byte accounting PartitionGradients consumes. V.GradBytes
	// should equal Elems·ElemBytes for the plan to conserve volume.
	V core.Volumes
}

// Config tunes a Plan.
type Config struct {
	Strategy   Strategy
	Models     core.Models // performance models driving the GarPlan and task estimates
	ChunkBytes float64     // StrategyFixedChunk chunk size (default core.LinaChunkBytes, the simulated Lina's)
	Slices     int         // AllReduce slices per hidden window (default 4)
	ElemBytes  float64     // accounting bytes per gradient element (default 4, fp32 master grads)
}

func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = StrategyFSMoE
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = core.LinaChunkBytes
	}
	if c.Slices < 1 {
		c.Slices = 4
	}
	if c.ElemBytes <= 0 {
		c.ElemBytes = 4
	}
	return c
}

// Slice is one range of the schedule: elements [Lo, Hi) of layer Layer's
// gradient. A hidden slice is one AllReduce task, named Name.
type Slice struct {
	Layer, Lo, Hi int
	Name          string
	id            int // position among the plan's hidden slices
}

// Len is the slice's element count.
func (s Slice) Len() int { return s.Hi - s.Lo }

// Report summarizes one synchronization round. A slice counts where it ran:
// in a backward plan (HiddenBytes, Slices) or in Finish (TailBytes,
// TailSlices), so HiddenBytes + TailBytes = TotalBytes.
type Report struct {
	Strategy    Strategy
	TotalBytes  float64       // accounting bytes across all layers
	HiddenBytes float64       // bytes synchronized inside backward stream plans
	TailBytes   float64       // bytes synchronized by Finish, after the backward pass
	TailMS      float64       // measured wall time of the exposed tail
	Slices      int           // AllReduce slices run inside plans
	TailSlices  int           // AllReduce slices run by Finish
	Gar         *core.GarPlan // the strategy's byte plan (nil for no-overlap)
}

// Update is applied once to each piece of a layer's gradient buffer,
// elements [lo, hi), and may rewrite it in place. Finish calls it from
// several goroutines at once on disjoint ranges: it must not call back into
// the Plan.
type Update func(layer, lo, hi int)

// Plan is a strategy's solved §5 schedule together with the inputs it was
// solved for: the byte plan, the slices each layer's backward plan hides at
// each emit point, and the exposed tail. Nothing in the schedule changes
// from one step to the next while the configuration and the layer specs
// hold, so a training loop solves it once (Solve) and asks For on every
// step. Beside the schedule a Plan holds one step's state, from Begin to
// Finish: one step at a time.
type Plan struct {
	cfg    Config // defaults applied
	specs  []LayerSpec
	total  float64       // accounting bytes across all layers
	gar    *core.GarPlan // nil for no-overlap
	hidden [][][]Slice   // [layer][point] the slices layer's backward plan runs
	tail   []Slice       // the ranges no plan hides, in backward order

	tailSlices int              // the tail's slices as the Report counts them
	tailBytes  float64          // the tail's accounting bytes
	tailTiles  int              // the tail's comm.RingTile tiles
	tileFn     func(lo, hi int) // tailRange, bound once: Finish's fan-out allocates no closure

	// One step's state, reset by Begin.
	update Update
	ran    []bool // [slice id] Run this step
	rep    Report
}

// Solve validates the layer specs, computes the strategy's byte plan — for
// StrategyFSMoE the §5 partition, the one expensive call of the package —
// and cuts the schedule: in backward order each layer's plan drains the
// strategy's budget from the pending pool (the gradients of layers whose
// backward already finished, §5.2's greedy fill), cuts the drained ranges
// into slices and spreads them round-robin over its emit points; whatever
// is pending after layer 0 is the tail.
func Solve(cfg Config, specs []LayerSpec) (*Plan, error) {
	cfg = cfg.withDefaults()
	if len(specs) == 0 {
		return nil, fmt.Errorf("gradsync: no layers")
	}
	for i, sp := range specs {
		if sp.Elems <= 0 {
			return nil, fmt.Errorf("gradsync: layer %d has %d gradient elements", i, sp.Elems)
		}
		if sp.Points < 1 {
			return nil, fmt.Errorf("gradsync: layer %d has %d emit points", i, sp.Points)
		}
		if err := sp.V.Validate(); err != nil {
			return nil, err
		}
	}
	p := &Plan{cfg: cfg, specs: slices.Clone(specs)}
	cores := make([]core.LayerSpec, len(specs))
	for i, sp := range specs {
		cores[i] = core.LayerSpec{V: sp.V}
		p.total += float64(sp.Elems) * cfg.ElemBytes
	}
	switch cfg.Strategy {
	case StrategyFSMoE:
		p.gar = cfg.Models.PartitionGradients(cores, core.MaxPipelineDegree)
	case StrategyFixedChunk:
		p.gar = cfg.Models.FixedChunkGarPlan(cores, cfg.ChunkBytes)
	case StrategyNoOverlap:
	default:
		return nil, fmt.Errorf("gradsync: unknown strategy %q (valid: %s, %s, %s)",
			cfg.Strategy, StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap)
	}
	p.schedule()
	p.tileFn = p.tailRange
	return p, nil
}

// schedule cuts the hidden slices and the tail.
func (p *Plan) schedule() {
	p.hidden = make([][][]Slice, len(p.specs))
	var pending []Slice
	for i := len(p.specs) - 1; i >= 0; i-- {
		budget := p.budgetElems(i, pending)
		var taken []Slice
		drained := 0
		for budget > 0 && len(pending) > 0 {
			r := pending[0]
			if r.Len() > budget {
				r.Hi = r.Lo + budget
				pending[0].Lo = r.Hi
			} else {
				pending = pending[1:]
			}
			taken = append(taken, r)
			drained += r.Len()
			budget -= r.Len()
		}
		points := make([][]Slice, p.specs[i].Points)
		per, t := p.sliceElems(drained), 0
		for _, r := range taken {
			for lo := r.Lo; lo < r.Hi; lo += per {
				sl := Slice{Layer: r.Layer, Lo: lo, Hi: min(lo+per, r.Hi), id: len(p.ran)}
				sl.Name = fmt.Sprintf("AR%d[%d:%d)", sl.Layer, sl.Lo, sl.Hi)
				points[t%len(points)] = append(points[t%len(points)], sl)
				p.ran = append(p.ran, false)
				t++
			}
		}
		p.hidden[i] = points
		pending = append(pending, Slice{Layer: i, Hi: p.specs[i].Elems})
	}
	p.tail = pending
	for _, r := range p.tail {
		// The tail is accounted in ChunkBytes-bounded slices for the fixed-
		// chunk baseline (each paying its collective startup); adaptive and
		// no-overlap tails go as whole remaining ranges.
		per := r.Len()
		if p.cfg.Strategy == StrategyFixedChunk {
			per = p.sliceElems(per)
		}
		p.tailSlices += (r.Len() + per - 1) / per
		p.tailBytes += float64(r.Len()) * p.cfg.ElemBytes
		p.tailTiles += (r.Len() + comm.RingTile - 1) / comm.RingTile
	}
}

// budgetElems returns how many pending elements layer i's backward window
// may hide, per the strategy.
func (p *Plan) budgetElems(i int, pending []Slice) int {
	switch p.cfg.Strategy {
	case StrategyFSMoE:
		return int(p.gar.HiddenBytes(i) / p.cfg.ElemBytes)
	case StrategyFixedChunk:
		// Lina launches everything already produced, slack or not.
		n := 0
		for _, r := range pending {
			n += r.Len()
		}
		return n
	default:
		return 0
	}
}

// sliceElems is the per-task slice size for a window that drained taken
// elements.
func (p *Plan) sliceElems(taken int) int {
	if p.cfg.Strategy == StrategyFixedChunk {
		return max(int(p.cfg.ChunkBytes/p.cfg.ElemBytes), 1)
	}
	return max((taken+p.cfg.Slices-1)/p.cfg.Slices, 1)
}

// For returns the plan for (cfg, specs): p itself when it was solved for
// exactly these inputs, compared by value, and a fresh Solve otherwise (a
// nil p always solves). Reuse never rests on the caller's word that
// nothing changed.
func (p *Plan) For(cfg Config, specs []LayerSpec) (*Plan, error) {
	if p != nil && p.cfg == cfg.withDefaults() && slices.Equal(p.specs, specs) {
		return p, nil
	}
	return Solve(cfg, specs)
}

// Hidden returns the slices layer i's backward plan runs, per emit point:
// a builder appends Run(slice) tasks for Hidden(i)[pt] at point pt, on the
// plan's shared inter stream. Read-only.
func (p *Plan) Hidden(i int) [][]Slice { return p.hidden[i] }

// Begin starts one step's synchronization under the schedule. With a nil
// update the buffers end as they were.
func (p *Plan) Begin(update Update) {
	p.update = update
	clear(p.ran)
	p.rep = Report{Strategy: p.cfg.Strategy, TotalBytes: p.total, Gar: p.gar}
}

// Run runs hidden slice sl of the current step on the calling goroutine:
// the task's own, since the World's kernel pool is sized to the executor's
// workers and a slice that fanned out would oversubscribe it. A plan's
// inter stream runs its slices one at a time, and plans run one after
// another, so no two Runs overlap. In-plan AllReduce tasks' fault injection
// is task-level: it fires before the body, so a retried slice is never
// updated twice.
func (p *Plan) Run(sl Slice) {
	p.apply(sl.Layer, sl.Lo, sl.Hi)
	p.ran[sl.id] = true
	p.rep.Slices++
	p.rep.HiddenBytes += float64(sl.Len()) * p.cfg.ElemBytes
}

// apply runs the Update, if any, over elements [lo, hi) of layer.
func (p *Plan) apply(layer, lo, hi int) {
	if p.update != nil {
		p.update(layer, lo, hi)
	}
}

// Finish synchronizes what no plan ran — the exposed tail, and every hidden
// slice whose plan aborted (a fault or deadline) or never ran (a degraded
// pass) before reaching it — measuring its wall time, and returns the
// step's report. Call it once per Begin, after every backward plan has
// returned. The tail's comm.RingTile tiles are split across the default
// tensor pool's workers: disjoint element ranges, so the bytes are those of
// the tail run on one goroutine, and each element meets the Update once
// however wide the pool is.
func (p *Plan) Finish() Report {
	t0 := time.Now()
	for _, points := range p.hidden {
		for _, sls := range points {
			for _, sl := range sls {
				if !p.ran[sl.id] {
					p.apply(sl.Layer, sl.Lo, sl.Hi)
					p.rep.TailSlices++
					p.rep.TailBytes += float64(sl.Len()) * p.cfg.ElemBytes
				}
			}
		}
	}
	p.rep.TailSlices += p.tailSlices
	p.rep.TailBytes += p.tailBytes
	tensor.ParallelRange(p.tailTiles, p.tileFn)
	p.rep.TailMS = float64(time.Since(t0)) / 1e6
	return p.rep
}

// tailRange updates tiles [lo, hi) of the tail, numbered across its ranges
// in order, one apply per range it meets.
func (p *Plan) tailRange(lo, hi int) {
	for _, r := range p.tail {
		k := (r.Len() + comm.RingTile - 1) / comm.RingTile
		if a, b := max(lo, 0), min(hi, k); a < b {
			p.apply(r.Layer, r.Lo+a*comm.RingTile, min(r.Lo+b*comm.RingTile, r.Hi))
		}
		lo, hi = lo-k, hi-k
		if hi <= 0 {
			return
		}
	}
}
