//go:build !linux

package tagged

// Hint is helper's value elsewhere.
func Hint() int { return helper() }

// deadOther is dead, and only a non-Linux context sees it.
func deadOther() {}
