// Package asm declares a var that only its assembly reads.
package asm

// table is read by sum's assembly, never by Go code.
var table = [2]uint64{1, 2}

func sum() uint64

// Sum returns the table's sum.
func Sum() uint64 { return sum() }
