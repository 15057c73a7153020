// Package gradsync makes the paper's §5 Gradient-AllReduce executable: it
// takes the per-rank partial parameter gradients a multi-rank backward
// pass produces, plans how many bytes to hide inside each layer's
// backward pipeline (core.PartitionGradients — the FSMoE contribution —
// or the Lina fixed-chunk / no-overlap baselines), and materializes that
// plan as real chunked Ring-AllReduce tasks appended to the backward
// stream plans, so AllReduce slices genuinely run in the slack between
// dispatch/combine chunks on the shared inter-node stream.
//
// The package is deliberately ignorant of the MoE layer: a consumer
// registers one LayerSpec per generalized layer (element counts plus the
// §5 byte-accounting volumes) and solves the byte plan once per distinct
// (Config, specs) — Solve, then Plan.For on every later step — then cuts a
// Syncer per backward pass (Plan.NewSyncer) and drives it in backward order —
// StartLayer(i) before layer i's plan is built, EmitAt while it is built
// (the hook a stream-plan builder calls at inter-stream slack points),
// Collect(i) once layer i's gradients exist, and Finish() for the exposed
// tail. Because every element is reduced exactly once by a restricted
// ring that is byte-identical under any slicing (comm.RingAllReduceChunk),
// all strategies produce bit-identical synchronized gradients; only the
// wall-clock placement differs. The same property lets Finish split the
// tail across every core of the default tensor pool. A Syncer cut with an
// Update has the ring apply it where each reduced slice lands
// (comm.RingAllReduceUpdate), so the buffers end as the updated replicas
// instead of the gradients.
package gradsync

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Strategy selects how gradient synchronization is scheduled relative to
// the backward pipeline.
type Strategy string

const (
	// StrategyFSMoE is §5's adaptive partitioning: per-layer hidden byte
	// budgets from core.PartitionGradients (greedy window fill plus the
	// differential-evolution stretch assignment).
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

// LayerSpec registers one generalized layer with a Syncer.
type LayerSpec struct {
	// Elems is the layer's flattened gradient length (per rank).
	Elems int
	// DenseElems is the leading prefix attributed to the dense (gate)
	// sub-model; the remainder is expert gradient. It only steers the
	// byte accounting — slicing treats the buffer uniformly.
	DenseElems int
	// V is the §5 byte accounting PartitionGradients consumes. V.GradBytes
	// should equal Elems·ElemBytes for the plan to conserve volume.
	V core.Volumes
}

// Config tunes a Syncer.
type Config struct {
	Strategy    Strategy
	Models      core.Models // performance models driving the GarPlan and task estimates
	RMax        int         // Algorithm-1 degree cap (default 16)
	ChunkBytes  float64     // StrategyFixedChunk chunk size (default 30 MiB, the paper's Lina setting)
	Slices      int         // AllReduce slices per hidden window (default 4)
	ElemBytes   float64     // accounting bytes per gradient element (default 4, fp32 master grads)
	GPUsPerNode int         // node shape for ring Stats; <= 0 counts all traffic as inter-node (comm semantics)
}

func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = StrategyFSMoE
	}
	if c.RMax < 1 {
		c.RMax = 16
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 30 << 20
	}
	if c.Slices < 1 {
		c.Slices = 4
	}
	if c.ElemBytes <= 0 {
		c.ElemBytes = 4
	}
	return c
}

// pendingRange is one not-yet-synchronized element range of one layer.
type pendingRange struct {
	layer int
	rr    comm.RowRange
}

// Report summarizes one synchronization round.
type Report struct {
	Strategy    Strategy
	TotalBytes  float64 // accounting bytes across all layers
	HiddenBytes float64 // bytes reduced inside backward stream plans
	TailBytes   float64 // bytes reduced by Finish, after the backward pass
	TailMS      float64 // measured wall time of the exposed tail
	Slices      int     // AllReduce tasks emitted into plans
	TailSlices  int     // AllReduce slices run by Finish
	Stats       comm.Stats
	Gar         *core.GarPlan // the strategy's byte plan (nil for no-overlap)
}

// Syncer drives one backward pass's gradient synchronization. It is not
// safe for concurrent use; the stream runtime serializes the emitted
// tasks on the inter stream, and StartLayer/Collect/Finish are called
// from the goroutine that builds and awaits the plans, so no additional
// locking is needed.
type Syncer struct {
	cfg    Config
	specs  []LayerSpec
	plan   *core.GarPlan
	names  *sliceNames
	tail   *tailRun
	update Update
	grads  [][][]float64 // [layer][rank][] partial gradients, set by Collect
	ranks  int
	seen   int // layers collected so far
	synced bool

	pending  []pendingRange
	emit     [][]pendingRange // slices bucketed per emit point for the current layer
	inflight []pendingRange   // slices handed to a plan by EmitAt but not yet reduced
	rep      Report

	tailMu  sync.Mutex // guards tailErr while Finish's workers run
	tailErr error
}

// Plan is a strategy's solved byte plan together with the inputs it was
// solved for. Nothing in it changes from one step to the next while the
// configuration and the layer shapes hold, so a training loop solves it
// once (Solve), asks For on every step, and cuts a fresh Syncer from it per
// backward pass. A Plan is immutable once built; Syncers and Reports share
// its GarPlan.
type Plan struct {
	cfg   Config // defaults applied
	specs []LayerSpec
	total float64       // accounting bytes across all layers
	gar   *core.GarPlan // nil for no-overlap
	names sliceNames
	tail  tailRun
}

// tailRun is the body Finish hands the default tensor pool, built once per
// Plan so that a step's fan-out allocates no closure of its own. mu holds it
// for the one Syncer it serves during a Finish.
type tailRun struct {
	mu sync.Mutex
	s  *Syncer
	fn func(lo, hi int)
}

// sliceNames holds the task name of every AllReduce slice Syncers of one
// Plan have emitted. A plan cuts the same slices step after step, so each
// name is formatted once.
type sliceNames struct {
	mu sync.Mutex
	m  map[pendingRange]string
}

func (n *sliceNames) of(sl pendingRange) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	name, ok := n.m[sl]
	if !ok {
		if n.m == nil {
			n.m = map[pendingRange]string{}
		}
		name = fmt.Sprintf("AR%d[%d:%d)", sl.layer, sl.rr.Lo, sl.rr.Hi)
		n.m[sl] = name
	}
	return name
}

// Update is applied by the ring to each fully reduced piece of a layer's
// buffers, once: elements [lo, hi) of layer's buffer on rank, which alone
// holds them at that point and may rewrite them in place before they are
// copied to the other ranks. Finish calls it from several goroutines at once
// on disjoint ranges, holding its Plan's tail: it must not call back into
// the Syncer or anything cut from the same Plan.
type Update func(layer, rank, lo, hi int)

// Solve validates the layer specs and computes the strategy's byte plan —
// for StrategyFSMoE the §5 differential-evolution partition, the one
// expensive call of the package.
func Solve(cfg Config, specs []LayerSpec) (*Plan, error) {
	cfg = cfg.withDefaults()
	if len(specs) == 0 {
		return nil, fmt.Errorf("gradsync: no layers")
	}
	for i, sp := range specs {
		if sp.Elems <= 0 {
			return nil, fmt.Errorf("gradsync: layer %d has %d gradient elements", i, sp.Elems)
		}
		if sp.DenseElems < 0 || sp.DenseElems > sp.Elems {
			return nil, fmt.Errorf("gradsync: layer %d dense prefix %d outside [0,%d]", i, sp.DenseElems, sp.Elems)
		}
		if err := sp.V.Validate(); err != nil {
			return nil, err
		}
	}
	p := &Plan{cfg: cfg, specs: slices.Clone(specs)}
	p.tail.fn = func(lo, hi int) { p.tail.s.tailTiles(lo, hi) }
	cores := make([]core.LayerSpec, len(specs))
	for i, sp := range specs {
		cores[i] = core.LayerSpec{V: sp.V}
		p.total += float64(sp.Elems) * cfg.ElemBytes
	}
	switch cfg.Strategy {
	case StrategyFSMoE:
		p.gar = cfg.Models.PartitionGradients(cores, cfg.RMax)
	case StrategyFixedChunk:
		p.gar = cfg.Models.FixedChunkGarPlan(cores, cfg.ChunkBytes)
	case StrategyNoOverlap:
	default:
		return nil, fmt.Errorf("gradsync: unknown strategy %q (valid: %s, %s, %s)",
			cfg.Strategy, StrategyFSMoE, StrategyFixedChunk, StrategyNoOverlap)
	}
	return p, nil
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

// NewSyncer starts one backward pass's synchronization under the plan.
// With a nil update the collected buffers end as the summed gradients.
func (p *Plan) NewSyncer(update Update) *Syncer {
	return &Syncer{
		cfg:    p.cfg,
		specs:  p.specs,
		plan:   p.gar,
		names:  &p.names,
		tail:   &p.tail,
		update: update,
		grads:  make([][][]float64, len(p.specs)),
		rep:    Report{Strategy: p.cfg.Strategy, TotalBytes: p.total, Gar: p.gar},
	}
}

// New solves the plan for (cfg, specs) and starts a Syncer under it — the
// one-shot form for callers with no step loop to keep the Plan across.
func New(cfg Config, specs []LayerSpec) (*Syncer, error) {
	p, err := Solve(cfg, specs)
	if err != nil {
		return nil, err
	}
	return p.NewSyncer(nil), nil
}

// Report returns the running synchronization summary (complete after
// Finish).
func (s *Syncer) Report() Report { return s.rep }

// budgetElems returns how many pending elements layer i's backward window
// may hide, per the strategy.
func (s *Syncer) budgetElems(i int) int {
	switch s.cfg.Strategy {
	case StrategyFSMoE:
		return int(s.plan.HiddenBytes(i) / s.cfg.ElemBytes)
	case StrategyFixedChunk:
		// Lina launches everything already produced, slack or not.
		n := 0
		for _, pr := range s.pending {
			n += pr.rr.Len()
		}
		return n
	default:
		return 0
	}
}

// sliceElems is the per-task slice size for layer i's window.
func (s *Syncer) sliceElems(taken int) int {
	var per int
	if s.cfg.Strategy == StrategyFixedChunk {
		per = int(s.cfg.ChunkBytes / s.cfg.ElemBytes)
	} else {
		per = (taken + s.cfg.Slices - 1) / s.cfg.Slices
	}
	if per < 1 {
		per = 1
	}
	return per
}

// StartLayer prepares the AllReduce slices layer i's backward plan will
// absorb: it drains up to the strategy's byte budget from the pending
// pool (gradients of layers whose backward already finished) and cuts the
// drained ranges into slice tasks. Call before the layer's plan is built.
func (s *Syncer) StartLayer(i int) {
	if i < 0 || i >= len(s.specs) {
		return
	}
	// Slices parked for a previous plan that never emitted them (a builder
	// announcing more points than it drives), and slices a previous plan
	// accepted but never reduced (the plan aborted on a fault or deadline
	// before its inter stream reached them), return to the pool rather
	// than being lost.
	for _, bucket := range s.emit {
		s.pending = append(s.pending, bucket...)
	}
	s.emit = nil
	s.pending = append(s.pending, s.inflight...)
	s.inflight = nil
	budget := s.budgetElems(i)
	var taken []pendingRange
	total := 0
	for budget > 0 && len(s.pending) > 0 {
		pr := s.pending[0]
		n := pr.rr.Len()
		if n <= budget {
			s.pending = s.pending[1:]
			taken = append(taken, pr)
			total += n
			budget -= n
			continue
		}
		cut := pendingRange{layer: pr.layer, rr: comm.RowRange{Lo: pr.rr.Lo, Hi: pr.rr.Lo + budget}}
		s.pending[0].rr.Lo = cut.rr.Hi
		taken = append(taken, cut)
		total += budget
		budget = 0
	}
	// Cut the drained ranges into per-task slices and park them until the
	// plan builder announces its emit points.
	per := s.sliceElems(total)
	var slices []pendingRange
	for _, pr := range taken {
		slices = append(slices, cutSlices(pr, per)...)
	}
	s.emit = [][]pendingRange{slices}
}

// cutSlices splits one pending range into per-sized slices — the single
// cutting rule shared by the hidden windows and the fixed-chunk tail.
func cutSlices(pr pendingRange, per int) []pendingRange {
	var out []pendingRange
	for lo := pr.rr.Lo; lo < pr.rr.Hi; lo += per {
		hi := lo + per
		if hi > pr.rr.Hi {
			hi = pr.rr.Hi
		}
		out = append(out, pendingRange{layer: pr.layer, rr: comm.RowRange{Lo: lo, Hi: hi}})
	}
	return out
}

// BeginLayer implements the plan-builder hook: the builder announces how
// many inter-stream emit points the plan has, and the prepared slices are
// spread across them round-robin so they fill successive slack windows
// instead of piling up in the first one.
func (s *Syncer) BeginLayer(points int) {
	if points < 1 {
		points = 1
	}
	var slices []pendingRange
	for _, bucket := range s.emit {
		slices = append(slices, bucket...)
	}
	s.emit = make([][]pendingRange, points)
	for t, sl := range slices {
		s.emit[t%points] = append(s.emit[t%points], sl)
	}
}

// EmitAt appends the AllReduce slice tasks assigned to emit point pt onto
// stream (the plan's shared inter stream). Tasks have no dependencies —
// their input gradients were produced by plans that already completed —
// so only stream order schedules them, which is exactly the inter-node
// link contention §5 budgets for.
func (s *Syncer) EmitAt(p *runtime.Plan, stream string, pt int) {
	if pt < 0 || pt >= len(s.emit) {
		return
	}
	for _, sl := range s.emit[pt] {
		s.inflight = append(s.inflight, sl)
		bytes := float64(sl.rr.Len()) * s.cfg.ElemBytes
		// The estimate lives in the same arbitrary elements/1e6 unit space
		// as the host plan's other tasks (moe.World's estElems), so the
		// plan's structural Simulate stays internally consistent; the ring
		// moves ~2 passes over the slice.
		est := float64(2*sl.rr.Len()) / 1e6
		p.Add(s.names.of(sl), KindAllReduce, stream, est,
			func() error { return s.reduce(sl) })
		s.rep.Slices++
		s.rep.HiddenBytes += bytes
	}
	s.emit[pt] = nil
}

// reduce runs one in-plan AllReduce slice on the task's goroutine: the
// World's kernel pool is sized to the executor's workers, and a slice that
// fanned out would oversubscribe it. Plans execute their inter stream
// serially and Finish runs after every plan has been awaited, so the stats
// accumulation never races.
func (s *Syncer) reduce(sl pendingRange) error {
	if s.grads[sl.layer] == nil {
		return fmt.Errorf("gradsync: layer %d sliced before Collect", sl.layer)
	}
	// reduce serves in-plan AR tasks, whose fault injection is task-level:
	// RetryPolicy.Kinds covers KindAllReduce, and an injected failure fires
	// before the body, so a retried slice is never reduced or updated twice.
	// The ring itself takes no guard, and neither does the Finish tail, which
	// runs outside any plan.
	st, err := s.ring(sl.layer, sl.rr)
	if err != nil {
		return err
	}
	s.rep.Stats.Merge(st)
	// Mark the slice reduced so an aborted plan's reclamation re-pends
	// only the slices its skipped tasks left untouched. Plans drive their
	// inter stream serially and Finish runs after every plan has been
	// awaited, so this bookkeeping never races.
	for i, p := range s.inflight {
		if p.layer == sl.layer && p.rr == sl.rr {
			s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
			break
		}
	}
	return nil
}

// ring runs the restricted ring over elements rr of layer's buffers,
// applying the Syncer's Update where each reduced clip lands.
func (s *Syncer) ring(layer int, rr comm.RowRange) (comm.Stats, error) {
	var update func(rank, lo, hi int)
	if s.update != nil {
		update = func(rank, lo, hi int) { s.update(layer, rank, lo, hi) }
	}
	return comm.RingAllReduceUpdate(s.grads[layer], s.cfg.GPUsPerNode, rr, update)
}

// Collect registers layer i's per-rank partial gradients: from now on
// they are pending and later windows (or the tail) will reduce them.
// Buffers must all have the registered element count; they are reduced in
// place (every rank ends with the elementwise sum, or with what the
// Syncer's Update made of it).
func (s *Syncer) Collect(i int, grads [][]float64) error {
	if i < 0 || i >= len(s.specs) {
		return fmt.Errorf("gradsync: collect of unknown layer %d", i)
	}
	if s.grads[i] != nil {
		return fmt.Errorf("gradsync: layer %d collected twice", i)
	}
	if len(grads) == 0 {
		return fmt.Errorf("gradsync: layer %d collected no ranks", i)
	}
	if s.ranks != 0 && len(grads) != s.ranks {
		return fmt.Errorf("gradsync: layer %d has %d ranks, earlier layers %d", i, len(grads), s.ranks)
	}
	for r, g := range grads {
		if len(g) != s.specs[i].Elems {
			return fmt.Errorf("gradsync: layer %d rank %d has %d elements, spec says %d", i, r, len(g), s.specs[i].Elems)
		}
	}
	s.ranks = len(grads)
	s.grads[i] = grads
	s.pending = append(s.pending, pendingRange{layer: i, rr: comm.RowRange{Lo: 0, Hi: s.specs[i].Elems}})
	s.seen++
	return nil
}

// Finish synchronizes everything still pending — the exposed tail —
// measuring its wall time, and returns the completed report. Every layer
// must have been collected. The tail's ring tiles (comm.RingTile) are split
// across the default tensor pool's workers: the pieces are disjoint element
// ranges, so their updates write disjoint spans, and by the ring's tiling
// contract the bytes, Stats and update calls are those of one ring per tail
// slice on one goroutine. Every piece runs; their errors are joined and
// returned once all have finished.
func (s *Syncer) Finish() (Report, error) {
	if s.synced {
		return s.rep, fmt.Errorf("gradsync: Finish called twice")
	}
	if s.seen != len(s.specs) {
		return s.rep, fmt.Errorf("gradsync: %d of %d layers collected", s.seen, len(s.specs))
	}
	s.synced = true
	// Anything still parked for emission was never absorbed by a plan
	// (e.g. the budget outran the plan's emit points), and anything a plan
	// absorbed but never reduced (an aborted run's skipped tasks), joins
	// the tail.
	for _, bucket := range s.emit {
		s.pending = append(s.pending, bucket...)
	}
	s.emit = nil
	s.pending = append(s.pending, s.inflight...)
	s.inflight = nil
	t0 := time.Now()
	tiles := 0
	for _, pr := range s.pending {
		// The tail is accounted in ChunkBytes-bounded slices for the fixed-
		// chunk baseline (each paying its collective startup); adaptive and
		// no-overlap tails go as whole remaining ranges.
		per := pr.rr.Len()
		if s.cfg.Strategy == StrategyFixedChunk {
			per = s.sliceElems(per)
		}
		bufs := s.grads[pr.layer]
		for lo := pr.rr.Lo; lo < pr.rr.Hi; lo += per {
			sl := comm.RowRange{Lo: lo, Hi: min(lo+per, pr.rr.Hi)}
			s.rep.Stats.Merge(comm.RingAllReduceStats(len(bufs), len(bufs[0]), s.cfg.GPUsPerNode, sl))
			s.rep.TailSlices++
			s.rep.TailBytes += float64(sl.Len()) * s.cfg.ElemBytes
		}
		tiles += (pr.rr.Len() + comm.RingTile - 1) / comm.RingTile
	}
	s.tail.run(s, tiles)
	s.pending = nil
	s.rep.TailMS = float64(time.Since(t0)) / 1e6
	return s.rep, s.tailErr
}

// run reduces tiles [0, n) of s's tail on the default tensor pool.
func (t *tailRun) run(s *Syncer, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.s = s
	tensor.ParallelRange(n, t.fn)
	t.s = nil
}

// tailTiles reduces tiles [lo, hi) of the tail, numbered across the pending
// ranges in order, one ring per range it meets; a failed ring's error joins
// s.tailErr and the rest still run.
func (s *Syncer) tailTiles(lo, hi int) {
	for _, pr := range s.pending {
		k := (pr.rr.Len() + comm.RingTile - 1) / comm.RingTile
		if a, b := max(lo, 0), min(hi, k); a < b {
			rr := comm.RowRange{Lo: pr.rr.Lo + a*comm.RingTile, Hi: min(pr.rr.Lo+b*comm.RingTile, pr.rr.Hi)}
			if _, err := s.ring(pr.layer, rr); err != nil {
				s.tailMu.Lock()
				s.tailErr = errors.Join(s.tailErr, err)
				s.tailMu.Unlock()
			}
		}
		lo, hi = lo-k, hi-k
		if hi <= 0 {
			return
		}
	}
}
