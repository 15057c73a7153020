// Package fault is a deterministic, seeded fault injector for the stream
// runtime — the chaos-testing half of making the executable pipelines
// production-shaped. Real MoE training fleets treat stragglers, flaky
// links and dead workers as first-class events (FastMoE's shadowing,
// FlexMoE's dynamic placement); this package lets the in-process runtime
// rehearse exactly those events, reproducibly.
//
// Two design rules keep injection compatible with the repo's bit-identity
// contract:
//
//   - Faults fire BEFORE the faulted operation moves a single byte. A
//     Transient error therefore always leaves buffers untouched, so a
//     retry re-runs the operation from clean state and the final result
//     is byte-identical to a fault-free run. (This matters most for the
//     ring AllReduce, which accumulates in place and would not survive a
//     mid-flight replay.)
//
//   - Every decision is a pure function of (seed, task id, attempt) — no
//     wall clock, no RNG stream shared across goroutines — so the same
//     Spec produces the same faults no matter how the streams interleave,
//     under the parallel executor and the sequential baseline alike.
package fault

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"time"
)

// Class separates recoverable from fatal injected failures.
type Class int

const (
	// ClassTransient marks a failure injected before any buffer mutation:
	// retrying the failed operation is always safe and bit-exact.
	ClassTransient Class = iota
	// ClassPermanent marks a rank-down event: no retry can help; the
	// executor cancels cooperatively and the world flips into degraded
	// mode.
	ClassPermanent
)

func (c Class) String() string {
	if c == ClassPermanent {
		return "permanent"
	}
	return "transient"
}

// Error is a typed injected failure. The runtime classifies errors by
// unwrapping to *Error, so injected faults survive fmt.Errorf("%w")
// wrapping and errors.Join aggregation.
type Error struct {
	Class Class
	Rank  int    // failing rank, -1 when not attributable to one rank
	Op    string // label of the faulted task or collective
	Msg   string
}

// Error implements error.
func (e *Error) Error() string {
	r := "?"
	if e.Rank >= 0 {
		r = strconv.Itoa(e.Rank)
	}
	return fmt.Sprintf("fault: %s failure in %q (rank %s): %s", e.Class.String(), e.Op, r, e.Msg)
}

// NewTransient builds a retry-safe injected failure attributed to rank
// (-1 when unattributable).
func NewTransient(rank int, op, msg string) error {
	return &Error{Class: ClassTransient, Rank: rank, Op: op, Msg: msg}
}

// NewPermanent builds a rank-down failure.
func NewPermanent(rank int, op, msg string) error {
	return &Error{Class: ClassPermanent, Rank: rank, Op: op, Msg: msg}
}

// IsTransient reports whether err carries (possibly wrapped) a transient
// injected fault. Transient faults fire before any buffer mutation, so
// the failed operation may be retried bit-safely.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Class == ClassTransient
}

// IsPermanent reports whether err carries a permanent (rank-down) fault.
func IsPermanent(err error) bool { return permanent(err) != nil }

// PermanentRank extracts the failed rank of a permanent fault wrapped
// anywhere inside err (including errors.Join trees); ok is false when err
// carries no permanent fault.
func PermanentRank(err error) (rank int, ok bool) {
	if fe := permanent(err); fe != nil {
		return fe.Rank, true
	}
	return -1, false
}

// permanent returns the first permanent fault in err's tree. errors.As would
// stop at the first *Error, and a plan's joined error can list a task's
// transient failure ahead of the permanent one that canceled the plan while
// that task was between attempts.
func permanent(err error) *Error {
	switch e := err.(type) {
	case *Error:
		if e.Class == ClassPermanent {
			return e
		}
	case interface{ Unwrap() error }:
		return permanent(e.Unwrap())
	case interface{ Unwrap() []error }:
		for _, x := range e.Unwrap() {
			if fe := permanent(x); fe != nil {
				return fe
			}
		}
	}
	return nil
}

// StreamRank extracts the rank a stream name is pinned to: a World's
// per-rank streams are named "<role>:<rank>" ("compute:3"), so the suffix is
// the rank. Streams no one rank owns — "inter", and a group's "intra:g<G>",
// which all the group's members share — return -1.
func StreamRank(stream string) int {
	i := strings.LastIndexByte(stream, ':')
	if i < 0 {
		return -1
	}
	r, err := strconv.Atoi(stream[i+1:])
	if err != nil || r < 0 {
		return -1
	}
	return r
}

// Down describes a permanent rank-down event: the first task that matches
// (a stream of Rank, and Kind when non-empty) fails permanently, and every
// later task on that rank's streams fails too — the rank is gone. Only a
// stream pinned to a rank (StreamRank ≥ 0) matches: a negative Rank matches
// no task, and the shared streams never fire a Down.
type Down struct {
	Rank int
	// Kind restricts the trigger to one task kind ("Experts", "AlltoAll",
	// ...); empty means any task on the rank's streams. Kinds that run on
	// a single stream ("Experts" → "compute:<rank>") make the failing task
	// fully deterministic; broader triggers still down the same rank, but
	// which of its streams reports first depends on timing.
	Kind string
}

// Spec configures a deterministic injector. The zero value injects
// nothing; probabilities are clamped to [0, 1] by New, NaN to 0.
type Spec struct {
	Seed uint64

	// TransientProb is the per-attempt probability that a task fails with
	// a retry-safe transient error before its body runs. KindProb raises
	// it for specific task kinds (the higher rate wins), so chaos can
	// target, say, only the AlltoAll chain.
	TransientProb float64
	KindProb      map[string]float64

	// MaxTransientsPerTask caps injection by attempt index: attempts at or
	// beyond the cap are never failed, so a retried task deterministically
	// passes once it has absorbed the cap. 0 means uncapped (a task can
	// still exhaust its retry budget and fail the plan).
	MaxTransientsPerTask int

	// StragglerProb delays a task attempt by StragglerDelay before it
	// runs — the slow-rank tail the paper's co-scheduling argument is
	// really about. A zero delay defaults to 200µs.
	StragglerProb  float64
	StragglerDelay time.Duration

	// Down, when non-nil, permanently fails one rank mid-step.
	Down *Down
}

// clamp01 clamps p into [0, 1]; NaN, which compares false both ways, is 0.
func clamp01(p float64) float64 {
	if !(p > 0) {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Plan is a compiled injector. A nil *Plan injects nothing, so callers
// thread it unconditionally. Plans are stateless and goroutine-safe:
// every decision is a pure function of the spec and the call arguments.
type Plan struct {
	spec Spec
}

// own returns s with its own copies of the maps and Down, sharing no
// memory with the receiver's.
func (s Spec) own() Spec {
	s.KindProb = maps.Clone(s.KindProb)
	if s.Down != nil {
		d := *s.Down
		s.Down = &d
	}
	return s
}

// New compiles a Spec, clamping probabilities into [0, 1] (NaN to 0). The plan keeps
// its own copies of the spec's maps and Down: it never writes to the
// caller's, and editing them afterwards does not change its decisions.
func New(s Spec) *Plan {
	s = s.own()
	s.TransientProb = clamp01(s.TransientProb)
	s.StragglerProb = clamp01(s.StragglerProb)
	for k, v := range s.KindProb {
		s.KindProb[k] = clamp01(v)
	}
	if s.StragglerDelay <= 0 {
		s.StragglerDelay = 200 * time.Microsecond
	}
	return &Plan{spec: s}
}

// WithoutDown returns a plan identical to p with the permanent rank-down
// trigger removed — the injector the recovered world keeps running under
// after elastic recovery: the dead rank was re-placed, so replaying its
// down event against the rebuilt topology would re-kill a healthy rank.
// Transient and straggler injection carry over unchanged.
// Safe on a nil Plan (stays nil), and a no-op when no Down is configured.
func (p *Plan) WithoutDown() *Plan {
	if p == nil || p.spec.Down == nil {
		return p
	}
	s := p.spec
	s.Down = nil
	return &Plan{spec: s}
}

// Decision is the injector's verdict for one task attempt, produced
// before the task body runs: an optional straggler delay, then an
// optional injected error.
type Decision struct {
	Delay time.Duration
	Err   error
}

// Check decides the fate of one task attempt. attempt counts from 0 and
// increments across retries of the same task, so a capped spec eventually
// lets every task through. Safe on a nil Plan.
func (p *Plan) Check(stream, kind, label string, taskID, attempt int) Decision {
	if p == nil {
		return Decision{}
	}
	var d Decision
	s := &p.spec
	rank := StreamRank(stream)
	if s.Down != nil && rank >= 0 && rank == s.Down.Rank && (s.Down.Kind == "" || s.Down.Kind == kind) {
		d.Err = NewPermanent(rank, label, "injected rank-down")
		return d
	}
	if s.StragglerProb > 0 && p.roll(saltStraggler, taskID, attempt) < s.StragglerProb {
		d.Delay = s.StragglerDelay
	}
	prob := s.TransientProb
	if v, ok := s.KindProb[kind]; ok && v > prob {
		prob = v
	}
	underCap := s.MaxTransientsPerTask <= 0 || attempt < s.MaxTransientsPerTask
	if prob > 0 && underCap && p.roll(saltTransient, taskID, attempt) < prob {
		d.Err = NewTransient(rank, label, "injected transient failure")
	}
	return d
}

// Decision salts keep the straggler and transient decision spaces
// independent for one (taskID, attempt).
const (
	saltTransient = 0x7472616E7369656E // "transien"
	saltStraggler = 0x7374726167676C65 // "straggle"
)

// roll maps (seed, salt, id, attempt) to a uniform float in [0, 1) via a
// splitmix64 finalizer — deterministic, order-free, allocation-free.
func (p *Plan) roll(salt uint64, id, attempt int) float64 {
	x := p.spec.Seed ^ salt
	x ^= (uint64(id) + 1) * 0x9E3779B97F4A7C15
	x ^= (uint64(attempt) + 1) * 0xD1B54A32D192ED03
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
