// Package xrand provides the deterministic random-number machinery used by
// the simulated hardware substrate. Every simulated measurement in rooftune
// is a draw from a seeded generator, so whole paper experiments replay
// bit-identically given the same seed — a property the test suite relies on.
//
// The generator is SplitMix64 feeding xoshiro256**, both public-domain
// algorithms by Blackman and Vigna. We implement them locally instead of
// using math/rand so that (a) Mix can derive an uncorrelated stream per
// (system, benchmark, configuration, invocation) and (b) the sequence is
// stable across Go releases.
package xrand

import "math"

// splitmix64 advances a 64-bit state and returns the next output. It is
// used for seeding and stream derivation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix hashes any number of 64-bit parts into one seed with SplitMix64
// steps. It is the pure (non-mutating) way to derive independent stream
// seeds per (configuration, invocation): the same parts always yield the
// same stream, regardless of evaluation order.
func Mix(parts ...uint64) uint64 {
	state := uint64(0x6a09e667f3bcc909)
	out := splitmix64(&state)
	for _, p := range parts {
		state ^= p
		out ^= splitmix64(&state)
	}
	return out
}

// Rand is a deterministic xoshiro256** generator.
type Rand struct {
	s [4]uint64
	// cached spare normal variate for the Box-Muller transform
	spare    float64
	hasSpare bool
}

// New returns a generator seeded from seed via SplitMix64, per the xoshiro
// authors' recommendation (never seed xoshiro state directly).
func New(seed uint64) *Rand {
	var r Rand
	r.Reset(seed)
	return &r
}

// Reset reseeds r in place, exactly as New(seed) would seed a fresh
// generator, and drops any cached normal variate. It lets a Rand live by
// value inside a longer-lived struct instead of costing an allocation per
// stream.
func (r *Rand) Reset(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// A generator whose state is all zero would be stuck; SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	r.spare, r.hasSpare = 0, false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be overkill here; modulo
	// bias is negligible for the small n used in shuffles.
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n), used by the random-search
// strategy.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Normal returns a standard normal variate via the Box-Muller transform
// (polar form is avoided to keep the draw count per call deterministic at
// one uniform pair per two normals). The pair's sine and cosine come from
// one math.Sincos call, which shares math.Sin's and math.Cos's argument
// reduction and polynomials and so returns the same bits as calling both.
func (r *Rand) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u float64
	for u == 0 { // avoid log(0)
		u = r.Float64()
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	r.spare = mag * sin
	r.hasSpare = true
	return mag * cos
}

// LogNormal returns a variate whose logarithm is normal with parameters mu
// and sigma. Benchmark runtimes are right-skewed; the paper observes that
// "the distribution is usually non-normal", and a lognormal body captures
// that shape.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Normal())
}

// Gamma returns a Gamma(shape, scale) variate using the Marsaglia-Tsang
// method. Used for modelling OS-jitter bursts in the measurement noise.
func (r *Rand) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("xrand: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return r.Float64() < p }
