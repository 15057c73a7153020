package fsmoe

import (
	"fmt"

	"repro/internal/moe"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Re-exported sub-module interfaces, so user code can implement a custom
// gate and hooks against the same contracts the built-ins use (§3.3's
// CustomizedCallback pattern).
type (
	// Gate is the routing sub-module contract.
	Gate = moe.Gate
	// Hooks carries the six non-invasive extension points of §3.1. They
	// run on a Layer and on every World over it, forward only: the backward
	// runs straight through them. The dispatch and combine hooks see the
	// padded expert-major (E, Tpad, M) buffer a World moves, with pad rows
	// at R > 1, so only hooks that treat each row on its own give the same
	// result at every rank count.
	Hooks = moe.Hooks
	// DispatchPlan is a gate's routing decision.
	DispatchPlan = moe.DispatchPlan
	// RouteCache is the gate's forward cache.
	RouteCache = moe.RouteCache
	// PlanGrad is the routing-weight gradient fed back to gates.
	PlanGrad = moe.PlanGrad
	// Param is one trainable parameter with its gradient.
	Param = moe.Param
	// Tensor is the dense CPU tensor all modules exchange.
	Tensor = tensor.Tensor
)

// GateKind names a built-in gating function.
type GateKind string

// The four pre-implemented routing functions of §3.1 plus expert choice,
// and the deterministic Zipf measurement gate (skewed load on demand for
// telemetry and load-balancing experiments).
const (
	GateGShard  GateKind = "gshard"
	GateSigmoid GateKind = "sigmoid"
	GateXMoE    GateKind = "xmoe"
	GateEC      GateKind = "ec"
	GateSoftMoE GateKind = "softmoe"
	GateZipf    GateKind = "zipf"
)

// OrderKind names a built-in ordering function.
type OrderKind string

// The two pre-implemented ordering functions of §3.1.
const (
	OrderGShard OrderKind = "gshard-einsum"
	OrderTutel  OrderKind = "tutel-sparse"
)

// ExpertKind names a built-in expert architecture.
type ExpertKind string

// The two pre-implemented expert networks of §3.1.
const (
	ExpertGPT     ExpertKind = "gpt-ffn"
	ExpertMixtral ExpertKind = "mixtral-ffn"
)

// LayerConfig assembles an MoE layer from named sub-modules. CustomGate
// overrides Gate when non-nil, which is how a user-defined gate plugs in.
type LayerConfig struct {
	M              int     // token embedding size
	H              int     // expert hidden size
	Experts        int     // number of experts E
	TopK           int     // experts per token k
	CapacityFactor float64 // f; 0 encodes f=∗ (no token dropping)

	Gate   GateKind
	Order  OrderKind
	Expert ExpertKind

	// Gate-specific knobs.
	SlotsPerExpert int     // SoftMoE slots per expert (default 1)
	ZipfSkew       float64 // Zipf gate skew exponent s (default 1.0; negative routes uniformly)

	Seed  uint64 // parameter initialization seed (default 1)
	Hooks []Hooks

	CustomGate Gate
}

// Layer is a fully assembled MoE layer. Forward runs it on x, shaped
// (B, L, M) or (N, M), with train enabling training-only gate behaviour
// (GShard's noisy gating), and returns the output and a *WorldCache;
// Backward propagates dy, accumulating every parameter gradient, and
// returns the input gradient; Params lists the trainable parameters
// (gate + experts), ZeroGrad clears their gradients, and Gate exposes the
// layer's gate.
//
// A Layer is a one-rank World: Forward and Backward run the layer's own
// World, built on first use at pipeline degree 1 on the calling goroutine
// and the default kernel pool, so it starts no goroutine and needs no
// Close. It runs the plans every World runs, at one rank. The cache holds
// the layer's workspace and the gate's routing scratch until its Backward
// returns, or until Release(cache) ends a forward-only call (evaluation):
// the next Forward replays the resident forward plan in the same memory.
// The hooks (LayerConfig.Hooks) run on every World over the layer.
type Layer = moe.MOELayer

// ErrCacheReleased reports a Backward over a released or consumed cache.
var ErrCacheReleased = moe.ErrCacheReleased

// NewLayer validates the configuration and assembles the layer.
func NewLayer(cfg LayerConfig) (*Layer, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rng := xrand.New(cfg.Seed)
	gcfg := moe.GateConfig{Experts: cfg.Experts, TopK: cfg.TopK, Factor: cfg.CapacityFactor}

	gate := cfg.CustomGate
	var err error
	if gate == nil {
		switch cfg.Gate {
		case GateGShard, "":
			gate, err = moe.NewGShardGate(gcfg, cfg.M, rng)
		case GateSigmoid:
			gate, err = moe.NewSigmoidGate(gcfg, cfg.M, rng)
		case GateXMoE:
			gate, err = moe.NewXMoEGate(gcfg, cfg.M, rng)
		case GateEC:
			gate, err = moe.NewECGate(gcfg, cfg.M, rng)
		case GateSoftMoE:
			gate, err = moe.NewSoftMoEGate(gcfg, cfg.M, cfg.SlotsPerExpert, rng)
		case GateZipf:
			skew := cfg.ZipfSkew
			if skew == 0 {
				skew = 1.0
			}
			gate, err = moe.NewZipfGate(gcfg, cfg.M, skew, cfg.Seed)
		default:
			return nil, fmt.Errorf("fsmoe: unknown gate kind %q", cfg.Gate)
		}
		if err != nil {
			return nil, err
		}
	}

	var order moe.Order
	switch cfg.Order {
	case OrderTutel, "":
		order = moe.TutelOrder{}
	case OrderGShard:
		order = moe.GShardOrder{}
	default:
		return nil, fmt.Errorf("fsmoe: unknown order kind %q", cfg.Order)
	}

	experts := make([]moe.Expert, cfg.Experts)
	for i := range experts {
		switch cfg.Expert {
		case ExpertGPT, "":
			experts[i], err = moe.NewGPTFFN(cfg.M, cfg.H, rng)
		case ExpertMixtral:
			experts[i], err = moe.NewMixtralFFN(cfg.M, cfg.H, rng)
		default:
			return nil, fmt.Errorf("fsmoe: unknown expert kind %q", cfg.Expert)
		}
		if err != nil {
			return nil, err
		}
	}

	return moe.NewMOELayer(moe.LayerConfig{
		M:              cfg.M,
		Gate:           gate,
		Order:          order,
		Experts:        experts,
		Hooks:          cfg.Hooks,
		GateConfig:     gcfg,
		SlotsPerExpert: cfg.SlotsPerExpert,
	})
}

// RandTensor returns a tensor of standard-normal values from the given
// seed. It keeps example code free of internal imports.
func RandTensor(seed uint64, shape ...int) *Tensor {
	return tensor.RandN(xrand.New(seed), 1, shape...)
}
