package tagged

// Hint is zero on Linux.
func Hint() int { return 0 }
