// Package xrand provides a small, fast, deterministic random number
// generator used throughout the repository.
//
// Reproducibility is a hard requirement for this system: simulated
// measurements feed performance-model fitting, which feeds the scheduler,
// so every run of every experiment must observe identical pseudo-random
// streams. math/rand would work, but a local implementation guarantees the
// stream is stable across Go releases and lets us derive independent
// sub-streams cheaply (Split), as the GShard gate does for its noise.
package xrand

import "math"

// RNG is a splittable 64-bit pseudo-random generator based on the
// SplitMix64 output function over a Weyl sequence. The zero value is not
// useful; construct with New.
type RNG struct {
	state uint64
	gamma uint64
}

const goldenGamma = 0x9e3779b97f4a7c15

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed, gamma: goldenGamma}
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mixGamma derives an odd gamma with enough bit transitions to keep the
// Weyl sequence well distributed.
func mixGamma(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	z = (z ^ (z >> 33)) | 1
	// If the candidate has too few bit transitions, scramble it.
	if popcount(z^(z>>1)) < 24 {
		z ^= 0xaaaaaaaaaaaaaaaa
	}
	return z
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += r.gamma
	return mix64(r.state)
}

// State exposes the generator's full internal state (state word and Weyl
// increment) for checkpointing; SetState restores it. A generator whose
// state was restored replays exactly the stream it would have produced —
// the property crash-consistent snapshots of noisy-gating RNGs rely on.
func (r *RNG) State() (state, gamma uint64) { return r.state, r.gamma }

// SetState overwrites the generator's internal state with a pair
// previously obtained from State.
func (r *RNG) SetState(state, gamma uint64) { r.state, r.gamma = state, gamma }

// Split returns a new generator whose stream is statistically independent
// of the receiver's. Both generators remain usable.
func (r *RNG) Split() *RNG {
	s := r.Uint64()
	g := mixGamma(r.Uint64())
	return &RNG{state: s, gamma: g}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal deviate using the Box–Muller
// transform. It is slightly slower than a ziggurat but has no tables and is
// trivially deterministic.
func (r *RNG) NormFloat64() float64 {
	// Guard against log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
