package moe

import "repro/internal/tensor"

// Hooks are the six non-invasive extension points of §3.1. Each hook, when
// non-nil, receives the activation tensor at its stage and returns the
// (possibly replaced) tensor that flows onward. Multiple Hooks structs
// compose in registration order.
//
// The paper's examples map directly: multimodal reshaping lives in
// BeforeMoeStart/BeforeMoeEnd; communication compression pairs
// BeforeDispatch (compress) with AfterDispatch (decompress).
type Hooks struct {
	BeforeMoeStart func(x *tensor.Tensor) *tensor.Tensor
	BeforeDispatch func(x *tensor.Tensor) *tensor.Tensor
	AfterDispatch  func(x *tensor.Tensor) *tensor.Tensor
	BeforeCombine  func(x *tensor.Tensor) *tensor.Tensor
	AfterCombine   func(x *tensor.Tensor) *tensor.Tensor
	BeforeMoeEnd   func(x *tensor.Tensor) *tensor.Tensor
}

// hookChain applies one named stage of every registered Hooks in order.
type hookChain []Hooks

func (h hookChain) beforeMoeStart(x *tensor.Tensor) *tensor.Tensor {
	for _, hk := range h {
		if hk.BeforeMoeStart != nil {
			x = hk.BeforeMoeStart(x)
		}
	}
	return x
}

func (h hookChain) beforeDispatch(x *tensor.Tensor) *tensor.Tensor {
	for _, hk := range h {
		if hk.BeforeDispatch != nil {
			x = hk.BeforeDispatch(x)
		}
	}
	return x
}

func (h hookChain) afterDispatch(x *tensor.Tensor) *tensor.Tensor {
	for _, hk := range h {
		if hk.AfterDispatch != nil {
			x = hk.AfterDispatch(x)
		}
	}
	return x
}

func (h hookChain) beforeCombine(x *tensor.Tensor) *tensor.Tensor {
	for _, hk := range h {
		if hk.BeforeCombine != nil {
			x = hk.BeforeCombine(x)
		}
	}
	return x
}

func (h hookChain) afterCombine(x *tensor.Tensor) *tensor.Tensor {
	for _, hk := range h {
		if hk.AfterCombine != nil {
			x = hk.AfterCombine(x)
		}
	}
	return x
}

func (h hookChain) beforeMoeEnd(x *tensor.Tensor) *tensor.Tensor {
	for _, hk := range h {
		if hk.BeforeMoeEnd != nil {
			x = hk.BeforeMoeEnd(x)
		}
	}
	return x
}
