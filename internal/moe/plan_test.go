package moe

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestCapacityFor(t *testing.T) {
	// T = k·f·N/E (§2.1): 2 choices × 1.2 × 64 tokens / 8 experts = 19.2 → 19.
	if got := CapacityFor(64, 8, 2, 1.2); got != 19 {
		t.Fatalf("CapacityFor = %d, want 19", got)
	}
	if got := CapacityFor(64, 8, 2, 0); got != 0 {
		t.Fatalf("f=∗ must return 0 (caller sizes to realized load), got %d", got)
	}
	if got := CapacityFor(2, 64, 1, 1.0); got != 1 {
		t.Fatalf("capacity floor is 1, got %d", got)
	}
}

func TestBuildHardPlanDropsOverCapacity(t *testing.T) {
	asg := []assignment{
		{token: 0, expert: 0, weight: 0.5},
		{token: 1, expert: 0, weight: 0.6},
		{token: 2, expert: 0, weight: 0.7}, // third assignment to expert 0: dropped at T=2
	}
	p := buildHardPlan(3, 2, 2, asg)
	if p.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", p.Dropped)
	}
	if p.SlotToken[0][0] != 0 || p.SlotToken[0][1] != 1 {
		t.Fatalf("slots = %v", p.SlotToken[0])
	}
	if err := p.Validate(3); err != nil {
		t.Fatal(err)
	}
}

func TestBuildHardPlanNoDropSizesToMaxLoad(t *testing.T) {
	asg := []assignment{
		{token: 0, expert: 1, weight: 1},
		{token: 1, expert: 1, weight: 1},
		{token: 2, expert: 1, weight: 1},
		{token: 3, expert: 0, weight: 1},
	}
	p := buildHardPlan(4, 2, 0, asg)
	if p.Capacity != 3 {
		t.Fatalf("f=∗ capacity = %d, want realized max load 3", p.Capacity)
	}
	if p.Dropped != 0 {
		t.Fatalf("f=∗ dropped %d tokens", p.Dropped)
	}
}

func TestPlanValidateCatchesCorruption(t *testing.T) {
	p := buildHardPlan(4, 2, 2, []assignment{{token: 0, expert: 0, weight: 1}})
	p.SlotToken[0][1] = 99 // out of range token
	if err := p.Validate(4); err == nil {
		t.Fatal("expected validation error for bad token index")
	}
	p2 := buildHardPlan(4, 2, 2, nil)
	p2.SlotWeight[1][0] = 0.5 // weight on empty slot
	if err := p2.Validate(4); err == nil {
		t.Fatal("expected validation error for weighted empty slot")
	}
}

func TestSlotsOfReverseIndex(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		tokens := 1 + r.Intn(20)
		experts := 1 + r.Intn(6)
		var asg []assignment
		for tk := 0; tk < tokens; tk++ {
			asg = append(asg, assignment{token: tk, expert: r.Intn(experts), weight: r.Float64()})
		}
		p := buildHardPlan(tokens, experts, 0, asg)
		rev := p.slotsOf(tokens)
		// Each token appears exactly once (one assignment each, f=∗).
		for tk := 0; tk < tokens; tk++ {
			at := rev.pos[rev.off[tk]:rev.off[tk+1]]
			if len(at) != 1 {
				return false
			}
			e, s := at[0][0], at[0][1]
			if p.SlotToken[e][s] != tk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanSlots(t *testing.T) {
	p := &DispatchPlan{Experts: 4, Capacity: 3}
	if p.Slots() != 12 {
		t.Fatalf("Slots = %d", p.Slots())
	}
}
