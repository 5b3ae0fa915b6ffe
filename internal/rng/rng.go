// Package rng implements the pseudo-random number generator used by the
// Photon simulator: a 48-bit linear congruential generator with the classic
// drand48 constants, giving the period-2^48 sequence the paper describes.
//
// The paper's parallelization divides the single global sequence into P
// disjoint contiguous subsequences with O(log n) jump-ahead ("individual
// periods of 2^48/P"). The engines here instead give every photon its own
// substream, positioned by hashing (seed, photon index) — see
// core.PhotonStream — so a trajectory does not depend on which worker
// traces it.
package rng

const (
	// Multiplier and increment of the drand48 LCG: x' = (a*x + c) mod 2^48.
	mulA = 0x5DEECE66D
	addC = 0xB

	mask48 = 1<<48 - 1

	// Period is the full cycle length of the generator.
	Period = 1 << 48
)

// Source is a deterministic stream of uniform variates. It is NOT safe for
// concurrent use; every photon draws from its own Source.
type Source struct {
	state uint64
}

// New returns a Source seeded like seed48: the 48-bit state is the low 32
// bits of seed shifted up 16, XORed with the multiplier, which matches the
// conventional drand48 seeding and guarantees distinct seeds yield distinct
// streams.
func New(seed int64) *Source {
	return &Source{state: (uint64(seed)<<16 | 0x330E) & mask48}
}

// NewFromState returns a Source whose raw 48-bit state is exactly state.
// Used by per-photon substreams and by tests that need precise positioning.
func NewFromState(state uint64) *Source {
	return &Source{state: state & mask48}
}

// State returns the raw 48-bit state. Two Sources with equal state produce
// identical futures.
func (s *Source) State() uint64 { return s.state }

// Reset repositions the Source at exactly state, as if freshly built by
// NewFromState. It exists so the photon loop can seat each photon's
// substream in one stack-held Source, in place of one heap allocation per
// photon.
func (s *Source) Reset(state uint64) { s.state = state & mask48 }

// next advances the LCG one step and returns the new 48-bit state.
func (s *Source) next() uint64 {
	s.state = (s.state*mulA + addC) & mask48
	return s.state
}

// Uint64 returns 48 fresh random bits in the low bits of a uint64.
func (s *Source) Uint64() uint64 { return s.next() }

// Float64 returns a uniform variate in [0, 1) with 48 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.next()) / float64(Period)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// 48 uniform bits scaled down; bias is < n/2^48, negligible for the
	// scene-sized n used here.
	return int(s.next() % uint64(n))
}
