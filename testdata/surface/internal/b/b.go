// Package b declares a field named like a's dead method.
package b

// Handle holds a close callback.
type Handle struct {
	Close func()
}
