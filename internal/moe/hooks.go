package moe

import (
	"fmt"

	"repro/internal/tensor"
)

// Hooks are the six non-invasive extension points of §3.1. Each hook, when
// non-nil, receives the activation tensor at its stage and returns the
// (possibly replaced) tensor that flows onward. Multiple Hooks structs
// compose in registration order. Hooks are forward-only: the backward pass
// runs straight through them.
//
// The paper's examples map directly: multimodal reshaping lives in
// BeforeMoeStart/BeforeMoeEnd; communication compression pairs
// BeforeDispatch (compress) with AfterDispatch (decompress).
//
// The dispatch and combine hooks see the padded expert-major (E, Tpad, M)
// buffer a World moves; at R > 1 it has pad rows after each expert's
// capacity, so only hooks that treat each row on its own give the same
// result at every rank count.
type Hooks struct {
	BeforeMoeStart func(x *tensor.Tensor) *tensor.Tensor
	BeforeDispatch func(x *tensor.Tensor) *tensor.Tensor
	AfterDispatch  func(x *tensor.Tensor) *tensor.Tensor
	BeforeCombine  func(x *tensor.Tensor) *tensor.Tensor
	AfterCombine   func(x *tensor.Tensor) *tensor.Tensor
	BeforeMoeEnd   func(x *tensor.Tensor) *tensor.Tensor
}

// hookStage names one of the six fields of Hooks.
type hookStage int

const (
	beforeMoeStart hookStage = iota
	beforeDispatch
	afterDispatch
	beforeCombine
	afterCombine
	beforeMoeEnd
)

// at returns hk's hook of stage s, nil when unset.
func (hk *Hooks) at(s hookStage) func(*tensor.Tensor) *tensor.Tensor {
	return [...]func(*tensor.Tensor) *tensor.Tensor{
		hk.BeforeMoeStart, hk.BeforeDispatch, hk.AfterDispatch, hk.BeforeCombine, hk.AfterCombine, hk.BeforeMoeEnd,
	}[s]
}

// hookChain is a layer's registered Hooks, in registration order.
type hookChain []Hooks

// apply runs the given stages on x, stage after stage, each stage's hooks
// in registration order, and returns what the last one returned.
func (h hookChain) apply(x *tensor.Tensor, stages ...hookStage) *tensor.Tensor {
	for _, s := range stages {
		for i := range h {
			if f := h[i].at(s); f != nil {
				x = f(x)
			}
		}
	}
	return x
}

// has reports whether any hook of the given stages is registered.
func (h hookChain) has(stages ...hookStage) bool {
	for _, s := range stages {
		for i := range h {
			if h[i].at(s) != nil {
				return true
			}
		}
	}
	return false
}

// applyTo runs the given stages on buf, a buffer the pass keeps reading,
// and leaves their result in it: a returned tensor of buf's size is copied
// back, one of another size is an error.
func (h hookChain) applyTo(buf *tensor.Tensor, stages ...hookStage) error {
	out := h.apply(buf, stages...)
	if out.Size() != buf.Size() {
		return fmt.Errorf("moe: hooks returned %v for the expert-major %v buffer: a dispatch or combine hook must keep its size", out.Shape(), buf.Shape())
	}
	if out != buf {
		copy(buf.Data(), out.Data())
	}
	return nil
}
