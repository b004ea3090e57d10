// Package rng provides a small, fast, deterministic pseudo-random number
// generator together with the variate generators needed by the simulation
// study: uniform, exponential, Poisson, Bernoulli and permutation sampling.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 so that any 64-bit seed yields a well-mixed initial state.
// Independent substreams for parallel components are obtained with SubSeed,
// which uses the jump-free "seed derivation" approach: each child stream is
// seeded from a SplitMix64 sequence of the base seed, so sibling streams are
// statistically independent for simulation purposes.
//
// The package intentionally does not use math/rand: experiments must be
// exactly reproducible across Go releases, and math/rand's global stream and
// historical algorithm changes make that fragile.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** pseudo-random generator.
// The zero value is not usable; construct one with New.
type Source struct {
	s [4]uint64
}

// splitMix64 advances x through the SplitMix64 sequence and returns the next
// output. It is used only for seeding.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed. Two Sources built
// from the same seed produce identical streams.
func New(seed uint64) *Source {
	r := &Source{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state, which is a
	// fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Reseed reinitializes the Source in place from the given seed, exactly as
// New would: a Source that is Reseeded with some seed produces the same
// stream as a fresh New(seed). It exists so hot loops (batched simulations)
// can reuse one generator across runs without allocating.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// SubSeed derives the seed of deterministic substream i of a base seed in
// O(1): the SplitMix64 state after i+1 steps from `seed` is
// seed + (i+1)·γ (the generator's state is an arithmetic sequence), and the
// substream seed is that state's mixed output. Substreams of one base seed
// are statistically independent for simulation purposes, and the mapping
// depends only on (seed, i) — never on evaluation order — which is what
// makes sharded sweeps bit-identical regardless of worker count.
func SubSeed(seed, i uint64) uint64 {
	x := seed + i*0x9e3779b97f4a7c15
	return splitMix64(&x)
}

// SubSource returns a fresh Source seeded with SubSeed(seed, i): the O(1)
// deterministic substream i of base seed, independent of evaluation order.
// This is the substream constructor for restart schedules and sharded
// searches — New(SubSeed(seed, i)) spelled as one call.
func SubSource(seed, i uint64) *Source {
	return New(SubSeed(seed, i))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method, which avoids modulo bias. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n=0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed variate with the given mean.
// It panics if mean <= 0.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("rng: Exp called with mean=%g", mean))
	}
	// Inversion: -mean * ln(1-U). 1-U avoids ln(0).
	return -mean * math.Log(1-r.Float64())
}

// Poisson returns a Poisson-distributed variate with the given mean lambda.
// For small lambda it uses Knuth multiplication; for large lambda it uses
// the normal approximation with continuity correction, which is accurate to
// well under the simulation noise floor for lambda >= 30.
func (r *Source) Poisson(lambda float64) int {
	if lambda < 0 {
		panic(fmt.Sprintf("rng: Poisson called with lambda=%g", lambda))
	}
	if lambda == 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	for {
		n := r.Norm(lambda, math.Sqrt(lambda))
		if n >= -0.5 {
			return int(math.Round(n))
		}
	}
}

// Norm returns a normally distributed variate with the given mean and
// standard deviation, using the polar (Marsaglia) method.
func (r *Source) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
