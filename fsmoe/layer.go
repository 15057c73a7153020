package fsmoe

import (
	"fmt"

	"repro/internal/moe"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Re-exported sub-module interfaces, so user code can implement custom
// gates, orders, experts and dispatchers against the same contracts the
// built-ins use (§3.3's CustomizedExpert / CustomizedCallback pattern).
type (
	// Gate is the routing sub-module contract.
	Gate = moe.Gate
	// Order is the data-layout sub-module contract.
	Order = moe.Order
	// Expert is the expert-network contract.
	Expert = moe.Expert
	// ExpertCache is the opaque forward cache an Expert hands to Backward.
	ExpertCache = moe.ExpertCache
	// Dispatcher is the Dispatch/Combine sub-module contract.
	Dispatcher = moe.Dispatcher
	// Hooks carries the six non-invasive extension points of §3.1.
	Hooks = moe.Hooks
	// DispatchPlan is a gate's routing decision.
	DispatchPlan = moe.DispatchPlan
	// RouteCache is the gate's forward cache.
	RouteCache = moe.RouteCache
	// PlanGrad is the routing-weight gradient fed back to gates.
	PlanGrad = moe.PlanGrad
	// Param is one trainable parameter with its gradient.
	Param = moe.Param
	// GateConfig carries shared routing hyperparameters.
	GateConfig = moe.GateConfig
	// Tensor is the dense CPU tensor all modules exchange.
	Tensor = tensor.Tensor
	// LayerCache is a layer's forward cache.
	LayerCache = moe.LayerCache
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

// LayerConfig assembles an MoE layer from named sub-modules. CustomGate,
// CustomOrder and CustomExperts override the respective Kind fields when
// non-nil, which is how user-defined implementations plug in.
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
	XMoELowRank    int     // X-MoE projection rank (default M/8)
	XMoETau        float64 // X-MoE temperature (default 0.3)
	ZipfSkew       float64 // Zipf gate skew exponent s (default 1.0; negative routes uniformly)

	Seed  uint64 // parameter initialization seed (default 1)
	Hooks []Hooks

	CustomGate    Gate
	CustomOrder   Order
	CustomExperts []Expert
	Dispatcher    Dispatcher // nil = single-device identity
}

// Layer is a fully assembled MoE layer.
type Layer struct {
	inner *moe.MOELayer
	cfg   LayerConfig // retained for NewWorld's Algorithm-1 volume derivation
}

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
			gate, err = moe.NewXMoEGate(gcfg, cfg.M, cfg.XMoELowRank, cfg.XMoETau, rng)
		case GateEC:
			gate, err = moe.NewECGate(gcfg, cfg.M, rng)
		case GateSoftMoE:
			slots := cfg.SlotsPerExpert
			if slots <= 0 {
				slots = 1
			}
			gate, err = moe.NewSoftMoEGate(gcfg, cfg.M, slots, rng)
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

	order := cfg.CustomOrder
	if order == nil {
		switch cfg.Order {
		case OrderTutel, "":
			order = moe.TutelOrder{}
		case OrderGShard:
			order = moe.GShardOrder{}
		default:
			return nil, fmt.Errorf("fsmoe: unknown order kind %q", cfg.Order)
		}
	}

	experts := cfg.CustomExperts
	if experts == nil {
		experts = make([]Expert, cfg.Experts)
		for i := range experts {
			var e Expert
			switch cfg.Expert {
			case ExpertGPT, "":
				e, err = moe.NewGPTFFN(cfg.M, cfg.H, rng)
			case ExpertMixtral:
				e, err = moe.NewMixtralFFN(cfg.M, cfg.H, rng)
			default:
				return nil, fmt.Errorf("fsmoe: unknown expert kind %q", cfg.Expert)
			}
			if err != nil {
				return nil, err
			}
			experts[i] = e
		}
	}

	inner, err := moe.NewMOELayer(moe.LayerConfig{
		M:          cfg.M,
		Gate:       gate,
		Order:      order,
		Dispatcher: cfg.Dispatcher,
		Experts:    experts,
		Hooks:      cfg.Hooks,
	})
	if err != nil {
		return nil, err
	}
	return &Layer{inner: inner, cfg: cfg}, nil
}

// Forward runs the layer on x, shaped (B, L, M) or (N, M). train enables
// training-only gate behaviour (GShard's noisy gating).
func (l *Layer) Forward(x *Tensor, train bool) (*Tensor, *LayerCache, error) {
	return l.inner.Forward(x, train)
}

// Backward propagates dy, accumulating every parameter gradient, and
// returns the input gradient.
func (l *Layer) Backward(cache *LayerCache, dy *Tensor) (*Tensor, error) {
	return l.inner.Backward(cache, dy)
}

// Params returns all trainable parameters (gate + experts).
func (l *Layer) Params() []*Param { return l.inner.Params() }

// ZeroGrad clears every parameter gradient.
func (l *Layer) ZeroGrad() { l.inner.ZeroGrad() }

// Gate exposes the layer's gate (useful for custom inspection).
func (l *Layer) Gate() Gate { return l.inner.Gate() }

// NewTensor allocates a zero tensor; RandTensor fills one with N(0,1)
// values from the given seed. They keep example code free of internal
// imports.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// GetTensor returns a zero-filled tensor from the shared buffer free-list;
// PutTensor returns it. The single-owner rule applies: Put a tensor at most
// once, only if it came from GetTensor, and only when no view of it is
// still live (see the internal/tensor package docs). Custom experts and
// hooks use these to keep their transients off the allocator, like the
// built-in sub-modules do.
func GetTensor(shape ...int) *Tensor { return tensor.Get(shape...) }

// PutTensor releases a GetTensor buffer back to the free-list, at most once
// per GetTensor. It is a safe no-op for tensors of any other origin.
func PutTensor(t *Tensor) { tensor.Put(t) }

// SetComputeWorkers overrides the width of the shared worker pool that
// parallelizes expert execution, attention heads and large GEMMs; n <= 0
// restores the default (GOMAXPROCS). Width never changes results: work is
// sharded so no float accumulation is reordered.
func SetComputeWorkers(n int) { tensor.SetWorkers(n) }

// WorkerPool is a scoped tensor worker pool with a fixed width, the unit
// of the executable World's resource governance. Custom StagedExpert
// implementations receive one in PassBufs.Pool and should route their
// GEMMs through its MatMul*Into methods; a nil
// *WorkerPool designates the shared default pool.
type WorkerPool = tensor.Pool

// NewWorkerPool returns a scoped pool of fixed width n (at least 1). Its
// goroutines start lazily; Close releases them.
func NewWorkerPool(n int) *WorkerPool { return tensor.NewPool(n) }

// RandTensor returns a tensor of standard-normal values.
func RandTensor(seed uint64, shape ...int) *Tensor {
	return tensor.RandN(xrand.New(seed), 1, shape...)
}
