// Package rng provides small, fast, deterministic pseudo-random number
// generators used by the workload generator and by predictor allocation
// policies. Determinism matters: every experiment in this repository must be
// exactly reproducible from a seed, so we do not use math/rand's global
// state anywhere.
package rng

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// used both directly (for seeding) and as the seed expander for Xoshiro.
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro is the xoshiro256** generator of Blackman and Vigna: fast,
// 256 bits of state, and passes stringent statistical tests. It drives all
// stochastic choices in synthetic workloads.
type Xoshiro struct {
	s [4]uint64
}

// NewXoshiro returns a generator whose state is expanded from seed with
// SplitMix64, as recommended by the xoshiro authors.
func NewXoshiro(seed uint64) *Xoshiro { return &Xoshiro{s: expand(seed)} }

// expand is the SplitMix64 seed expansion behind NewXoshiro.
func expand(seed uint64) [4]uint64 {
	sm := NewSplitMix64(seed)
	var s [4]uint64
	for i := range s {
		s[i] = sm.Uint64()
	}
	// A state of all zeros is the one invalid state; seed expansion via
	// splitmix64 cannot produce it for any seed, but guard regardless.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	return s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the sequence.
func (x *Xoshiro) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Uint32 returns the next value truncated to 32 bits.
func (x *Xoshiro) Uint32() uint32 { return uint32(x.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Multiply-shift range reduction (Lemire). The tiny modulo bias of the
	// plain form is irrelevant for workload synthesis but the multiply-shift
	// form is bias-free enough and avoids division.
	return int((uint64(x.Uint32()) * uint64(n)) >> 32)
}

// Float64 returns a uniform value in [0, 1).
func (x *Xoshiro) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (x *Xoshiro) Bool(p float64) bool { return x.Float64() < p }

// Fork returns a new generator deterministically derived from this one and
// the given stream label, so independent sub-streams can be created without
// correlations (e.g. one stream per static branch site).
func (x *Xoshiro) Fork(label uint64) *Xoshiro {
	sm := NewSplitMix64(x.Uint64() ^ (label * 0x9e3779b97f4a7c15))
	return NewXoshiro(sm.Uint64())
}
