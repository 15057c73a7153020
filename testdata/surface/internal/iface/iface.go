// Package iface declares a method reached only through an interface.
package iface

// Namer names itself.
type Namer interface{ Name() string }

type impl struct{}

// Name is called only through Namer.
func (impl) Name() string { return "impl" }

// New returns a Namer.
func New() Namer { return impl{} }
