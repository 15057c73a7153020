package fsmoe

import (
	"os"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname
)

// moePoisonWorkspaces is internal/moe's unexported workspace-poisoning
// switch, reached by symbol name: it is a test hook and deliberately has no
// exported setter.
//
//go:linkname moePoisonWorkspaces repro/internal/moe.poisonWorkspaces
var moePoisonWorkspaces atomic.Bool

// TestMain enables workspace poisoning, so every token-path buffer a pass
// takes from its world comes back full of NaN.
func TestMain(m *testing.M) {
	moePoisonWorkspaces.Store(true)
	os.Exit(m.Run())
}
