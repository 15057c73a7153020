// Package stringer declares two fmt.Stringers: one that the tree converts
// to fmt.Stringer, and one only ever passed to fmt as an any.
package stringer

import "fmt"

// Live is returned as a fmt.Stringer.
type Live struct{}

// String is used: Label converts a Live to fmt.Stringer.
func (Live) String() string { return "live" }

// Label returns a Live as a fmt.Stringer.
func Label() fmt.Stringer { return Live{} }

// Dead is printed, never converted to fmt.Stringer.
type Dead struct{ N int }

// String is dead: passing a Dead to fmt.Println converts it to any, and
// the checker does not read fmt's own assertion.
func (Dead) String() string { return "dead" }
