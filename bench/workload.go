package main

import (
	"fmt"

	"repro/fsmoe"
)

// Constants every workload shares: a 4-rank world over 8 experts, top-2
// routing at capacity factor 1.2, §5 adaptive gradient partitioning.
const (
	ranks    = 4
	experts  = 8
	topK     = 2
	capacity = 1.2
	stepLR   = 0.01
)

// layerKind is one layer's gate and parallel strategy.
type layerKind struct {
	gate  fsmoe.GateKind
	strat fsmoe.Strategy
	group int // hybrid EP-group size
}

// workload is one stack and input shape the benchmark steps.
type workload struct {
	name    string
	why     string
	M, H, N int
	degree  int         // pipeline degree r; 0 leaves it to Algorithm 1
	layers  []layerKind // one per layer of the stack
	sink    bool        // a RegistrySink on every world
	ckpt    bool        // CheckpointManager{Keep: 2}, CheckpointEvery 5
}

func uniform(n int, k layerKind) []layerKind {
	out := make([]layerKind, n)
	for i := range out {
		out[i] = k
	}
	return out
}

var ep = layerKind{gate: fsmoe.GateGShard, strat: fsmoe.StrategyEP}

// workloads are sized so that a timed run averages about 27 s on a 2-core
// box, which is what the contract's cap on all runs together leaves with
// room for a slow hour of the host (the issue's shapes take 250-330 ms per
// step here). ep_tokens keeps the issue's M and H and sheds tokens. The
// others could not: a step costs about 35 ms per million parameters whatever
// the token count, so at the issue's M and H no N fits. Each was cut where
// its purpose loses least, judged by the measured shares in README.md:
// ep_params lost a layer and a sixth of H and kept M and N (AllReduce,
// exposed and in-plan, stays at a quarter of the step); ep_compute kept its
// layers and tokens and shrank M and H (fewer parameters per GEMM flop: more
// of the step is expert GEMMs than with two layers at the issue's M and H);
// mixed_ckpt kept M and its four layer kinds, halved H and took N down to
// 160. The issue's fifth workload, auto_pick (ep_tokens' layers under
// StrategyAuto), is not a workload here: four leave each run more samples
// inside the cap, and what it showed — the regret of Algorithm 1's
// pick — is a ratio of two stacks stepped back to back in one process, which
// the host's drift cancels out of, so every workload's traced run reports it
// as fsmoe.auto_regret on its own layers.
var workloads = []workload{
	{
		name: "ep_tokens",
		why: "per-token data movement and per-task overhead dominate: dispatch/combine, task-count and " +
			"allocation work shows here, GEMM-kernel work does not",
		M: 512, H: 16, N: 384, degree: 4, layers: uniform(3, ep),
	},
	{
		name: "ep_compute",
		why: "expert GEMMs are over 90% of backward busy time, AlltoAll+Pack about 2%: " +
			"tensor kernel and pool work shows here, comm changes should not",
		M: 64, H: 384, N: 256, degree: 2, layers: uniform(3, ep),
	},
	{
		name: "ep_params",
		why: "parameter-bound: exposed gradient AllReduce tail, gradient collection and SGD replicas dominate; " +
			"sec. 5 partitioning and ring work shows here, token-path work does not",
		M: 256, H: 320, N: 64, degree: 2, layers: uniform(2, ep),
	},
	{
		name: "mixed_ckpt",
		why: "EP+GShard, ESP+X-MoE, Hybrid(g=2)+Sigmoid, DenseSlots+SoftMoE layers, sinks on, a checkpoint " +
			"every 5 steps: guards the non-EP paths, telemetry and the stall",
		M: 128, H: 128, N: 160, degree: 2, sink: true, ckpt: true,
		layers: []layerKind{
			ep,
			{gate: fsmoe.GateXMoE, strat: fsmoe.StrategyESP},
			{gate: fsmoe.GateSigmoid, strat: fsmoe.StrategyHybrid, group: 2},
			{gate: fsmoe.GateSoftMoE, strat: fsmoe.StrategyDenseSlots},
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shape is the one-line record of what a run executed.
func (w workload) shape() string {
	return fmt.Sprintf("L=%d M=%d H=%d N=%d r=%d", len(w.layers), w.M, w.H, w.N, w.degree)
}

// Seeds of everything random in a run, all derived from the -seed flag.
func layerSeed(seed uint64, i int) uint64 { return seed*1000 + 10 + uint64(i) }
func inputSeed(seed uint64) uint64        { return seed*1000 + 1 }
func gradSeed(seed uint64) uint64         { return seed*1000 + 2 }

// stack is a built workload: the layers, the worlds executing them and the
// fixed step inputs.
type stack struct {
	layers []*fsmoe.Layer
	worlds []*fsmoe.World
	x, dy  *fsmoe.Tensor
	reg    *fsmoe.Telemetry // non-nil when the worlds carry a sink
}

// variant changes how a workload's stack is built: the StrategyAuto twin
// and the recovery clones are the same layers under another configuration.
type variant struct {
	sink bool // force a sink on every world
	auto bool // leave strategy, group size and degrees to Algorithm 1 (dense routers keep DenseSlots)
}

func (wl workload) newLayer(seed uint64, i int) (*fsmoe.Layer, error) {
	return fsmoe.NewLayer(fsmoe.LayerConfig{
		M: wl.M, H: wl.H, Experts: experts, TopK: topK, CapacityFactor: capacity,
		Gate: wl.layers[i].gate, Seed: layerSeed(seed, i),
	})
}

func (wl workload) worldConfig(i int, v variant, sink fsmoe.Sink) fsmoe.WorldConfig {
	k := wl.layers[i]
	cfg := fsmoe.WorldConfig{
		Ranks: ranks, PipelineDegree: wl.degree, Strategy: k.strat, GroupSize: k.group,
		BatchTokens: wl.N, Sink: sink,
	}
	if v.auto {
		cfg.PipelineDegree, cfg.GroupSize = 0, 0
		if k.strat != fsmoe.StrategyDenseSlots {
			cfg.Strategy = fsmoe.StrategyAuto
		}
	}
	return cfg
}

// build assembles the workload's stack from seed.
func (wl workload) build(seed uint64, v variant) (*stack, error) {
	s := &stack{}
	var sink fsmoe.Sink
	if wl.sink || v.sink {
		s.reg = fsmoe.NewTelemetry()
		sink = fsmoe.NewRegistrySink(s.reg)
	}
	for i := range wl.layers {
		l, err := wl.newLayer(seed, i)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("%s layer %d: %w", wl.name, i, err)
		}
		w, err := fsmoe.NewWorld(l, wl.worldConfig(i, v, sink))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("%s world %d: %w", wl.name, i, err)
		}
		s.layers = append(s.layers, l)
		s.worlds = append(s.worlds, w)
	}
	s.x = fsmoe.RandTensor(inputSeed(seed), wl.N, wl.M)
	// A small output gradient, N(0, 1e-4): the loop steps one fixed batch,
	// and at unit scale that drives the parameters to NaN within 25 steps.
	// The cost of a step does not depend on the values.
	s.dy = fsmoe.RandTensor(gradSeed(seed), wl.N, wl.M)
	for i, d := 0, s.dy.Data(); i < len(d); i++ {
		d[i] *= 1e-4
	}
	return s, nil
}

// close releases the worlds' scoped worker pools.
func (s *stack) close() {
	for _, w := range s.worlds {
		_ = w.Close() // only ErrWorldClosed on a second Close, which close never does
	}
	s.worlds = nil
}

// stepConfig is the training-loop configuration of the timed steps.
func stepConfig() fsmoe.StepConfig {
	return fsmoe.StepConfig{LR: stepLR, Strategy: fsmoe.SyncFSMoE}
}

func (s *stack) step(cfg fsmoe.StepConfig) (*fsmoe.StepResult, error) {
	return fsmoe.StepStack(s.worlds, s.x, s.dy, cfg)
}

// replicasAgree checks the step's per-rank parameter replicas: every rank
// must hold exactly rank 0's values.
func replicasAgree(res *fsmoe.StepResult) error {
	for r := 1; r < len(res.RankParams); r++ {
		if err := sameParams(res.RankParams[0], res.RankParams[r]); err != nil {
			return fmt.Errorf("rank %d replica differs from rank 0: %w", r, err)
		}
	}
	return nil
}

func sameParams(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d parameters", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("parameter %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// pass is the forward/backward surface fsmoe.World and fsmoe.Layer share,
// C being the forward cache each hands to its backward.
type pass[C any] interface {
	Forward(x *fsmoe.Tensor, train bool) (*fsmoe.Tensor, C, error)
	Backward(cache C, dy *fsmoe.Tensor) (*fsmoe.Tensor, error)
}

// forwardBackward chains x forward through ps and dy backward in reverse.
// span, when non-nil, brackets each call: it is told the direction and the
// layer index and returns what to run when the call is over.
func forwardBackward[C any, P pass[C]](ps []P, x, dy *fsmoe.Tensor, span func(dir string, i int) func()) error {
	if span == nil {
		span = func(string, int) func() { return func() {} }
	}
	caches := make([]C, len(ps))
	for i, p := range ps {
		done := span("forward", i)
		y, cache, err := p.Forward(x, false)
		done()
		if err != nil {
			return err
		}
		x, caches[i] = y, cache
	}
	for i := len(ps) - 1; i >= 0; i-- {
		done := span("backward", i)
		dx, err := ps[i].Backward(caches[i], dy)
		done()
		if err != nil {
			return err
		}
		dy = dx
	}
	return nil
}
