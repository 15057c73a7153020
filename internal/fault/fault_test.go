package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestClassification: typed errors keep their class through wrapping and
// errors.Join, which is how the runtime sees them.
func TestClassification(t *testing.T) {
	tr := NewTransient(2, "D[0]", "flaky link")
	pe := NewPermanent(3, "E0[3]", "rank died")
	if !IsTransient(tr) || IsPermanent(tr) {
		t.Fatal("transient misclassified")
	}
	if !IsPermanent(pe) || IsTransient(pe) {
		t.Fatal("permanent misclassified")
	}
	wrapped := fmt.Errorf("runtime: task %q: %w", "E0[3]", pe)
	joined := errors.Join(errors.New("unrelated"), wrapped)
	if rank, ok := PermanentRank(joined); !ok || rank != 3 {
		t.Fatalf("PermanentRank(joined) = %d,%v; want 3,true", rank, ok)
	}
	// A task's transient failure joined ahead of the permanent one, as when
	// the plan was canceled while that task was between attempts.
	behind := errors.Join(fmt.Errorf("runtime: task %q: %w", "D[1]", tr), wrapped)
	if rank, ok := PermanentRank(behind); !ok || rank != 3 || !IsPermanent(behind) {
		t.Fatalf("PermanentRank(transient, permanent) = %d,%v; want 3,true", rank, ok)
	}
	if rank, ok := PermanentRank(tr); ok || rank != -1 {
		t.Fatalf("PermanentRank(transient) = %d,%v; want -1,false", rank, ok)
	}
	if _, ok := PermanentRank(errors.New("plain")); ok {
		t.Fatal("plain error reported a permanent rank")
	}
}

// TestStreamRank: per-rank streams attribute, shared streams do not.
func TestStreamRank(t *testing.T) {
	cases := map[string]int{
		"compute:3": 3, "intra:0": 0, "intra:g1": -1, "inter": -1, "intra": -1, "st:12": 12, "odd:x": -1, "": -1,
	}
	for s, want := range cases {
		if got := StreamRank(s); got != want {
			t.Errorf("StreamRank(%q) = %d, want %d", s, got, want)
		}
	}
}

// TestCheckDeterministic: the same spec produces the same decisions for
// the same (task, attempt), independent of call order — the property that
// keeps chaos runs reproducible under parallel streams.
func TestCheckDeterministic(t *testing.T) {
	spec := Spec{Seed: 7, TransientProb: 0.3, StragglerProb: 0.2}
	a, b := New(spec), New(spec)
	// Query b in reverse order to prove order-independence.
	type key struct{ id, attempt int }
	got := map[key]Decision{}
	for id := 0; id < 50; id++ {
		for at := 0; at < 3; at++ {
			got[key{id, at}] = a.Check("intra:1", "AlltoAll", "D", id, at)
		}
	}
	for id := 49; id >= 0; id-- {
		for at := 2; at >= 0; at-- {
			d := b.Check("intra:1", "AlltoAll", "D", id, at)
			w := got[key{id, at}]
			if (d.Err == nil) != (w.Err == nil) || d.Delay != w.Delay {
				t.Fatalf("decision for (%d,%d) differs across plans", id, at)
			}
		}
	}
}

// TestTransientCap: with probability 1 and a cap of 1, every task fails
// exactly its first attempt and passes the second — the deterministic
// building block the retry tests lean on.
func TestTransientCap(t *testing.T) {
	p := New(Spec{Seed: 1, TransientProb: 1, MaxTransientsPerTask: 1})
	for id := 0; id < 10; id++ {
		if d := p.Check("inter", "AlltoAll", "D", id, 0); !IsTransient(d.Err) {
			t.Fatalf("task %d attempt 0 not failed", id)
		}
		if d := p.Check("inter", "AlltoAll", "D", id, 1); d.Err != nil {
			t.Fatalf("task %d attempt 1 failed past the cap: %v", id, d.Err)
		}
	}
}

// TestRates: the realized injection rate tracks the configured
// probability, and kind/stream overrides win when higher.
func TestRates(t *testing.T) {
	p := New(Spec{
		Seed:          42,
		TransientProb: 0.05,
		KindProb:      map[string]float64{"AlltoAll": 0.5},
	})
	hits := func(kind string) int {
		n := 0
		for id := 0; id < 2000; id++ {
			if p.Check("inter", kind, "T", id, 0).Err != nil {
				n++
			}
		}
		return n
	}
	base, boosted := hits("Experts"), hits("AlltoAll")
	if base < 50 || base > 200 {
		t.Fatalf("base rate 0.05 realized %d/2000", base)
	}
	if boosted < 800 || boosted > 1200 {
		t.Fatalf("kind-boosted rate 0.5 realized %d/2000", boosted)
	}
}

// TestDown: the rank-down trigger fires only on the configured rank's
// streams (and kind), beats every other decision, and never fires for
// other ranks.
func TestDown(t *testing.T) {
	p := New(Spec{Seed: 3, Down: &Down{Rank: 2, Kind: "Experts"}})
	if d := p.Check("compute:2", "Experts", "E0[2]", 7, 0); !IsPermanent(d.Err) {
		t.Fatalf("down rank did not fail: %v", d.Err)
	} else if r, _ := PermanentRank(d.Err); r != 2 {
		t.Fatalf("down rank attributed to %d", r)
	}
	if d := p.Check("compute:1", "Experts", "E0[1]", 7, 0); d.Err != nil {
		t.Fatalf("healthy rank failed: %v", d.Err)
	}
	if d := p.Check("compute:2", "Pack", "U0[2]", 7, 0); d.Err != nil {
		t.Fatalf("down trigger ignored the kind filter: %v", d.Err)
	}
}

// TestNilAndZero: a nil plan and a zero spec both inject nothing, and the
// zero-delay straggler default is applied.
func TestNilAndZero(t *testing.T) {
	var nilPlan *Plan
	if d := nilPlan.Check("inter", "AlltoAll", "D", 0, 0); d.Err != nil || d.Delay != 0 {
		t.Fatal("nil plan injected")
	}
	if g := nilPlan.Guard("inter", "AlltoAll", -1, 0); g != nil {
		t.Fatal("nil plan produced a guard")
	}
	p := New(Spec{})
	for id := 0; id < 100; id++ {
		if d := p.Check("compute:0", "Experts", "E", id, 0); d.Err != nil || d.Delay != 0 {
			t.Fatal("zero spec injected")
		}
	}
	if New(Spec{StragglerProb: 1}).Spec().StragglerDelay != 200*time.Microsecond {
		t.Fatal("zero straggler delay not defaulted")
	}
}

// TestGuard: guards inject at the collective rate, count their own
// attempts so a capped guard deterministically passes, and distinct opIDs
// see independent decisions.
func TestGuard(t *testing.T) {
	p := New(Spec{Seed: 9, CollectiveProb: 1, MaxTransientsPerTask: 2})
	g := p.Guard("intra", "AllGather", -1, 4)
	if err := g(); !IsTransient(err) {
		t.Fatalf("attempt 0 not failed: %v", err)
	}
	if err := g(); !IsTransient(err) {
		t.Fatalf("attempt 1 not failed: %v", err)
	}
	if err := g(); err != nil {
		t.Fatalf("attempt 2 failed past the cap: %v", err)
	}
	if p2 := New(Spec{Seed: 9}); p2.Guard("intra", "AllGather", -1, 4) != nil {
		t.Fatal("guard produced with CollectiveProb=0")
	}

	// Inside a plan task the cap bounds both levels together: driven the way
	// the runtime drives a task — Check first, the guard only behind a
	// passing Check — no task absorbs more than the cap before it runs.
	both := New(Spec{Seed: 9, TransientProb: 0.6, CollectiveProb: 0.6, MaxTransientsPerTask: 2})
	most := 0
	for task := 0; task < 200; task++ {
		g, failed := both.Guard("inter", "AlltoAll", task, task), 0
		for attempt := 0; both.Check("inter", "AlltoAll", "D", task, attempt).Err != nil || g() != nil; attempt++ {
			failed++
		}
		most = max(most, failed)
	}
	if most != 2 {
		t.Fatalf("a task absorbed up to %d transients, want the cap (2) reached and never passed", most)
	}
}

// TestWithoutDown: the recovery path strips only the permanent rank-down
// trigger; transient and straggler injection carry over, and the original
// plan is untouched. Nil and down-free plans pass through unchanged.
func TestWithoutDown(t *testing.T) {
	p := New(Spec{Seed: 3, TransientProb: 0.5, StragglerProb: 0.25,
		Down: &Down{Rank: 1, Kind: "Experts"}})
	q := p.WithoutDown()
	if q == p {
		t.Fatal("WithoutDown returned the same plan despite a Down")
	}
	if p.Spec().Down == nil {
		t.Fatal("WithoutDown mutated the original plan")
	}
	if s := q.Spec(); s.Down != nil || s.TransientProb != 0.5 || s.StragglerProb != 0.25 || s.Seed != 3 {
		t.Fatalf("stripped spec = %+v", s)
	}
	if d := q.Check("compute:1", "Experts", "E", 0, 0); IsPermanent(d.Err) {
		t.Fatal("stripped plan still downs the rank")
	}
	if d := p.Check("compute:1", "Experts", "E", 0, 0); !IsPermanent(d.Err) {
		t.Fatal("original plan lost its Down")
	}
	var nilPlan *Plan
	if nilPlan.WithoutDown() != nil {
		t.Fatal("nil plan must stay nil")
	}
	noDown := New(Spec{Seed: 1})
	if noDown.WithoutDown() != noDown {
		t.Fatal("down-free plan must pass through unchanged")
	}
}

// TestNewOwnsItsSpec: New copies the caller's maps before clamping. Plans
// compiled concurrently from one Spec do not race on it, the caller's
// values stay as passed (out-of-range ones included), and editing the
// caller's maps, or the ones Spec returns, afterwards changes neither the
// plan's decisions nor its Spec.
func TestNewOwnsItsSpec(t *testing.T) {
	spec := Spec{
		Seed:       4,
		KindProb:   map[string]float64{"AlltoAll": 0, "AllGather": 1.5},
		StreamProb: map[string]float64{"intra": -0.5},
		Down:       &Down{Rank: 3},
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			New(spec)
		}()
	}
	wg.Wait()

	p := New(spec)
	if spec.KindProb["AllGather"] != 1.5 || spec.StreamProb["intra"] != -0.5 {
		t.Fatalf("New rewrote the caller's maps: %v %v", spec.KindProb, spec.StreamProb)
	}
	if s := p.Spec(); s.KindProb["AllGather"] != 1 || s.StreamProb["intra"] != 0 {
		t.Fatalf("compiled maps not clamped: %v %v", s.KindProb, s.StreamProb)
	}

	spec.KindProb["AlltoAll"] = 1
	spec.StreamProb["inter"] = 1
	spec.Down.Rank = 0
	ret := p.Spec()
	ret.KindProb["AlltoAll"] = 1
	ret.Down.Rank = 0
	for id := 0; id < 100; id++ {
		if d := p.Check("inter", "AlltoAll", "D", id, 0); d.Err != nil {
			t.Fatalf("task %d failed after the caller edited a map New was given: %v", id, d.Err)
		}
		if d := p.Check("compute:0", "Experts", "E", id, 0); d.Err != nil {
			t.Fatalf("task %d: the caller's Down edit reached the plan: %v", id, d.Err)
		}
	}
	if s := p.Spec(); s.KindProb["AlltoAll"] != 0 || len(s.StreamProb) != 1 || s.Down.Rank != 3 {
		t.Fatalf("Spec changed after the caller's edits: %+v down %+v", s, *s.Down)
	}
}
