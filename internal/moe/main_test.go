package moe

import (
	"os"
	"testing"
)

// TestMain turns on every debug guard for the whole package: static plan
// verification and workspace poisoning. Every plan any strategy builds in
// any test below therefore passes runtime.Plan.Verify, and a malformed
// schedule fails the test that constructed it instead of deadlocking; every
// workspace buffer comes back full of NaN, so a pass that reads token-path
// memory it did not write first fails its bit-identity check.
func TestMain(m *testing.M) {
	SetVerifyPlans(true)
	poisonWorkspaces.Store(true)
	os.Exit(m.Run())
}
