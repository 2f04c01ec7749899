// Package simnoise is the measurement stream every simulated kernel model
// shares. The four models (simblas, simstream, simspmv, simstencil)
// differ in their noise-free response surfaces; what they measure from
// those surfaces is one noise family, produced here:
//
//   - a per-invocation lognormal shift (allocation layout, thread
//     placement),
//   - a warm-up ramp over the invocation's iterations,
//   - a lognormal body per iteration and rare OS-jitter spikes,
//   - a fixed loop, timer or barrier overhead per step,
//   - a 1 µs floor, and gettimeofday's microsecond resolution on every
//     measured step.
//
// A model describes one configuration as a Point, computed once, and a
// Stream draws one invocation's samples from it without allocating.
package simnoise

import (
	"math"
	"time"

	"rooftune/internal/units"
	"rooftune/internal/vclock"
	"rooftune/internal/xrand"
)

// Noise calibrates a model's measurement noise.
type Noise struct {
	// IterSigma is the lognormal sigma of per-iteration noise;
	// InvSigma the lognormal sigma of the per-invocation multiplier.
	IterSigma, InvSigma float64
	// SpikeProb is the per-iteration probability of an OS-jitter spike;
	// SpikeScale its mean relative magnitude.
	SpikeProb, SpikeScale float64
}

// Point is one configuration of a simulated kernel: everything its
// samples depend on except the invocation's noise seed. A model computes
// it once per configuration; every invocation of the configuration
// streams from it.
type Point struct {
	Noise
	// Steady is the noise-free duration of one kernel pass, in seconds.
	Steady float64
	// Passes is the number of kernel passes one measured step batches;
	// it is at least 1.
	Passes int
	// Ramp is the warm-up transient over an invocation's iterations.
	Ramp units.Ramp
	// Overhead is the fixed cost of one step in seconds: loop and timer
	// overhead, or a parallel region's barrier.
	Overhead float64
	// Setup is the virtual cost of starting one invocation: process start
	// and first touch of the kernel's data.
	Setup time.Duration
	// Work is the work of one measured step in the metric's base units
	// (FLOPs or bytes), all batched passes included.
	Work float64
}

// Stream is one invocation's sample stream. The zero value is unusable;
// Reset starts it. It owns its generator by value, so a Stream embedded
// in a longer-lived struct costs no allocation of its own.
type Stream struct {
	rng xrand.Rand
	// base is one step's steady duration in seconds with the invocation's
	// shift applied: (Steady × shift) × Passes.
	base       float64
	ramp       units.Ramp
	iter       int
	iterSigma  float64
	spikeProb  float64
	spikeScale float64
	overhead   float64
}

// Reset starts the stream of one invocation of p, seeded with seed. The
// invocation's lognormal shift is the seed's first draw.
func (s *Stream) Reset(p *Point, seed uint64) {
	s.rng.Reset(seed)
	s.base = p.Steady * s.rng.LogNormal(0, p.InvSigma) * float64(p.Passes)
	s.ramp = p.Ramp
	s.iter = 0
	s.iterSigma = p.IterSigma
	s.spikeProb = p.SpikeProb
	s.spikeScale = p.SpikeScale
	s.overhead = p.Overhead
}

// Warmup returns the elapsed time of the unmeasured pre-heat execution
// (§III-A), which also advances the warm-up ramp. It is not quantised:
// no timer observes it.
func (s *Stream) Warmup() time.Duration {
	t, x, spike := s.next()
	return s.elapsed(t, math.Exp(x), spike)
}

// Step returns the elapsed time of the next measured iteration at
// gettimeofday's microsecond resolution.
//
// Its lognormal factor is exp(x), but Step needs that factor only as far
// as it moves the microsecond tick, and every operation after it is
// monotone in it. So Step first brackets exp(x) between two cheap bounds
// and returns their tick when both land on the same one; only when they
// straddle a tick does it evaluate math.Exp. The result is the same
// duration math.Exp would give, bit for bit.
//
//rooflint:hotpath
func (s *Stream) Step() time.Duration {
	t, x, spike := s.next()
	d, _ := s.tick(t, x, spike)
	return d
}

// next advances the stream by one iteration and returns its draws: the
// ramped steady duration t, the lognormal body's exponent x and the
// spike factor. The generator is drawn in a fixed order (normal,
// Bernoulli, then a gamma on a spike), so each invocation replays
// identically whatever the caller does with the values.
func (s *Stream) next() (t, x, spike float64) {
	t = s.base / s.ramp.At(s.iter)
	s.iter++
	x = s.iterSigma * s.rng.Normal()
	spike = 1
	if s.rng.Bernoulli(s.spikeProb) {
		spike = 1 + s.rng.Gamma(2, s.spikeScale/2)
	}
	return t, x, spike
}

// elapsed is one step's duration given its lognormal factor e, floored
// at 1 µs. For positive t, e and spike it is monotone in e.
func (s *Stream) elapsed(t, e, spike float64) time.Duration {
	t *= e
	t *= spike
	d := time.Duration((t + s.overhead) * float64(time.Second))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

// tick is a measured step's quantised duration for lognormal exponent x.
// exact reports that the bracket could not decide the tick, so it was
// computed with math.Exp.
func (s *Stream) tick(t, x, spike float64) (d time.Duration, exact bool) {
	if lo, hi, ok := expBounds(x); ok {
		d = vclock.QuantizeMicro(s.elapsed(t, lo, spike))
		if d == vclock.QuantizeMicro(s.elapsed(t, hi, spike)) {
			return d, false
		}
	}
	return vclock.QuantizeMicro(s.elapsed(t, math.Exp(x), spike)), true
}

const (
	// expLimit bounds the exponents expBounds brackets. The lognormal
	// bodies' sigmas are a few percent, so practically every exponent is
	// far inside it.
	expLimit = 0.7
	// expSteps is the table's resolution: 2^(k/expSteps) for integer k.
	expSteps = 64
	// expHalf is the largest |k| the table covers: ceil(expLimit *
	// expSteps / ln 2) = 65.
	expHalf = 65
	// expMargin is the bounds' relative half-width. The approximation is
	// within about 1e-15 of exp(x) and math.Exp within one ulp of it, so
	// a 1e-12 margin brackets math.Exp on every host, with or without
	// FMA.
	expMargin = 1e-12
)

// exp2Table holds 2^(k/expSteps) for k = -expHalf..expHalf.
var exp2Table = func() (t [2*expHalf + 1]float64) {
	for i := range t {
		t[i] = math.Exp2(float64(i-expHalf) / expSteps)
	}
	return t
}()

// expBounds returns lo <= math.Exp(x) <= hi for |x| < expLimit, or
// ok = false outside it (NaN included). It reduces x by the nearest
// multiple k of ln2/64, so that exp(x) = 2^(k/64) exp(r) with
// |r| <= ln2/128, and takes exp(r) from its degree-5 Taylor polynomial,
// whose truncation error at that |r| is below 1e-16.
func expBounds(x float64) (lo, hi float64, ok bool) {
	if !(x > -expLimit && x < expLimit) {
		return 0, 0, false
	}
	// x*64/ln2 lies within ±64.7, so adding expHalf + 0.5 keeps the
	// argument positive and the conversion rounds to the nearest k.
	i := int(x*(expSteps/math.Ln2) + (expHalf + 0.5))
	r := x - float64(i-expHalf)*(math.Ln2/expSteps)
	e := exp2Table[i] * (1 + r*(1+r*(1.0/2+r*(1.0/6+r*(1.0/24+r*(1.0/120))))))
	return e * (1 - expMargin), e * (1 + expMargin), true
}
