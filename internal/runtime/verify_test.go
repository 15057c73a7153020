package runtime

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// wellFormedPlan builds a small two-stream DAG using only canonical kinds.
func wellFormedPlan() *Plan {
	p := NewPlan()
	a := p.Add("pack", sim.KindPack, "compute:0", 1, nil)
	b := p.Add("a2a", sim.KindAlltoAll, "inter", 2, nil, a)
	p.Add("experts", sim.KindExperts, "compute:0", 3, nil, b)
	p.Add("ar", sim.KindAllReduce, "inter", 1, nil, b)
	return p
}

func TestPlanVerifyWellFormed(t *testing.T) {
	if err := wellFormedPlan().Verify(); err != nil {
		t.Fatalf("well-formed plan rejected: %v", err)
	}
}

// TestPlanVerify feeds five distinct malformed-plan shapes through Verify
// and checks each is rejected with its named sentinel. The shapes that
// Plan.Add already panics on (forward deps, negative estimates) are built
// by mutating the task table directly — exactly the corruption Verify
// exists to catch when a builder bypasses or outgrows Add's checks.
func TestPlanVerify(t *testing.T) {
	cases := []struct {
		name string
		plan func() *Plan
		want error
	}{
		{"dep out of range", func() *Plan {
			p := wellFormedPlan()
			p.tasks[2].deps = []int{99}
			return p
		}, ErrDepOutOfRange},
		{"dependency cycle", func() *Plan {
			// Backward-only deps cannot form a cycle on their own (Add
			// numbers tasks in topological order), so the cycle enters
			// through a corrupted stream queue: the dep edge says 1 waits
			// on 0, the reversed enqueue order says 0 waits on 1.
			p := NewPlan()
			a := p.Add("x", sim.KindPack, "A", 1, nil)
			p.Add("y", sim.KindPack, "A", 1, nil, a)
			p.streams["A"] = []int{1, 0}
			return p
		}, ErrDepCycle},
		{"stream undeclared", func() *Plan {
			p := wellFormedPlan()
			p.tasks[1].stream = "ghost"
			return p
		}, ErrStreamUndeclared},
		{"unknown kind", func() *Plan {
			p := wellFormedPlan()
			p.Add("mystery", "Mystery", "inter", 1, nil)
			return p
		}, ErrUnknownKind},
		{"negative estimate", func() *Plan {
			p := wellFormedPlan()
			p.tasks[3].est = -1
			return p
		}, ErrNegativeEst},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan().Verify()
			if err == nil {
				t.Fatalf("malformed plan accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			// The named sentinel is the only defect class reported (the
			// cycle shape may also trip nothing else).
			for _, other := range []error{ErrDepOutOfRange, ErrDepCycle, ErrStreamUndeclared,
				ErrUnknownKind, ErrNegativeEst} {
				if other != tc.want && errors.Is(err, other) {
					t.Fatalf("unexpected extra defect %v in %v", other, err)
				}
			}
		})
	}
}

// TestPlanVerifyJoinsAllDefects corrupts two independent invariants and
// checks both sentinels surface through the joined error.
func TestPlanVerifyJoinsAllDefects(t *testing.T) {
	p := wellFormedPlan()
	p.tasks[3].est = -5
	p.Add("mystery", "Mystery", "inter", 1, nil)
	err := p.Verify()
	if !errors.Is(err, ErrNegativeEst) || !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("joined error missing a defect: %v", err)
	}
}

// TestPlanVerifyStreamCycle exercises the implicit enqueue-order edges: a
// dependency from an earlier task on stream A to a later task on stream B
// whose predecessor depends back on A's earlier work — a deadlock Execute
// could not resolve — must be reported as a cycle.
func TestPlanVerifyStreamCycle(t *testing.T) {
	p := NewPlan()
	a0 := p.Add("a0", sim.KindPack, "A", 1, nil)
	p.Add("b0", sim.KindPack, "B", 1, nil, a0)
	b1 := p.Add("b1", sim.KindPack, "B", 1, nil)
	// Corrupt a0 to wait on b1: stream B forces b0 before b1, b0 waits on
	// a0, a0 waits on b1 — a cycle through the stream edge. The forward
	// reference is itself a defect, so both sentinels must surface.
	p.tasks[a0].deps = []int{b1}
	err := p.Verify()
	if !errors.Is(err, ErrDepCycle) {
		t.Fatalf("stream-order cycle not detected: %v", err)
	}
	if !errors.Is(err, ErrDepOutOfRange) {
		t.Fatalf("forward reference not reported: %v", err)
	}
}
