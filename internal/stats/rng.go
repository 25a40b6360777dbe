// Package stats provides the statistical substrate used throughout the
// repository: keyed per-row draws, a deterministic splittable random
// number generator,
// the Beta/Binomial/Normal distributions needed by the selectivity
// estimators, Hoeffding and Cantelli tail bounds, and small-sample
// summaries (moments, quantiles, Pearson correlation).
//
// Everything is built on the standard library only. All randomness comes
// from a seed, through Key (the engine's draws) or RNG (data generation
// and the experiments), so every result is reproducible.
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random number generator. It wraps a PCG source and
// adds the sampling primitives data generation and the experiment harness
// need: Bernoulli draws, integer ranges and shuffles. The engine's draws
// are keyed instead (Key).
//
// RNG is not safe for concurrent use; derive independent generators with
// Split when goroutines need their own streams.
type RNG struct {
	src *rand.Rand
	// seed material retained so Split can derive uncorrelated children.
	hi, lo uint64
	splits uint64
}

// NewRNG returns a generator seeded from seed. Two RNGs constructed with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	hi := seed ^ 0x9e3779b97f4a7c15
	lo := seed*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	return &RNG{src: rand.New(rand.NewPCG(hi, lo)), hi: hi, lo: lo}
}

// Split derives a new generator whose stream is independent of the parent's
// future output. Each call yields a distinct child.
func (r *RNG) Split() *RNG {
	r.splits++
	hi := Mix64(r.hi + r.splits*0xd1342543de82ef95)
	lo := Mix64(r.lo ^ r.splits*0xaf251af3b0f025b5)
	return &RNG{src: rand.New(rand.NewPCG(hi, lo)), hi: hi, lo: lo}
}

// Mix64 is the SplitMix64 finalizer: a bijection of the 64-bit integers
// whose outputs look independent even for sequential inputs. Keyed draws,
// RNG splits and the resilience layer's jitter and chaos schedules all
// hash through it.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform draw in [0,n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit draw.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// NormFloat64 returns a standard normal draw.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Gamma returns a draw from the Gamma(shape, 1) distribution using the
// Marsaglia–Tsang squeeze method. shape must be > 0.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("stats: Gamma shape must be positive")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.src.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a draw from the Beta(a, b) distribution.
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a)
	y := r.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}
