package moe

import (
	"os"
	"testing"
)

// TestMain turns on workspace poisoning for the whole package: every
// workspace buffer comes back full of NaN, so a pass that reads token-path
// memory it did not write first fails its bit-identity check. Plans need no
// guard here: runtime.Plan.Add rejects a malformed task where a strategy
// adds it.
func TestMain(m *testing.M) {
	poisonWorkspaces.Store(true)
	os.Exit(m.Run())
}
