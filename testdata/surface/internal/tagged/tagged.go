// Package tagged has files that only a non-default build context selects.
package tagged

// helper is called only from a file that Linux builds leave out.
func helper() int { return 1 }
