package simnoise

import (
	"math"
	"testing"
	"time"

	"rooftune/internal/units"
	"rooftune/internal/vclock"
	"rooftune/internal/xrand"
)

// testPoint is a DGEMM-like point: millisecond steps, a warm-up ramp and
// a visible spike rate.
func testPoint(steady float64) Point {
	return Point{
		Noise:    Noise{IterSigma: 0.02, InvSigma: 0.008, SpikeProb: 0.01, SpikeScale: 0.15},
		Steady:   steady,
		Passes:   1,
		Ramp:     units.WarmupRamp(0.12, 6),
		Overhead: 2e-6,
		Setup:    3 * time.Millisecond,
		Work:     1e9,
	}
}

// mathExpStep is the step formula with math.Exp evaluated on every step,
// the way the bracket must reproduce it.
type mathExpStep struct {
	rng      *xrand.Rand
	base     float64
	p        Point
	iter     int
	quantize bool
}

func newMathExpStep(p Point, seed uint64) *mathExpStep {
	rng := xrand.New(seed)
	base := p.Steady * rng.LogNormal(0, p.InvSigma) * float64(p.Passes)
	return &mathExpStep{rng: rng, base: base, p: p}
}

func (r *mathExpStep) step() time.Duration {
	t := r.base / r.p.Ramp.At(r.iter)
	r.iter++
	t *= r.rng.LogNormal(0, r.p.IterSigma)
	if r.rng.Bernoulli(r.p.SpikeProb) {
		t *= 1 + r.rng.Gamma(2, r.p.SpikeScale/2)
	}
	d := time.Duration((t + r.p.Overhead) * float64(time.Second))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	if r.quantize {
		d = vclock.QuantizeMicro(d)
	}
	return d
}

func TestExpBoundsBracketMathExp(t *testing.T) {
	// 2e6 exponents across the whole bracketed range, plus the edges of
	// the range and of the table's reduction intervals.
	xs := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 0.6999999999999999, -0.6999999999999999}
	for k := -expHalf; k <= expHalf; k++ {
		mid := (float64(k) + 0.5) * math.Ln2 / expSteps
		xs = append(xs, mid, math.Nextafter(mid, 0), math.Nextafter(mid, 1))
	}
	rng := xrand.New(2)
	for i := 0; i < 2000000; i++ {
		xs = append(xs, (2*rng.Float64()-1)*expLimit)
	}
	worst := 0.0
	for _, x := range xs {
		if !(x > -expLimit && x < expLimit) {
			continue
		}
		lo, hi, ok := expBounds(x)
		want := math.Exp(x)
		if !ok || !(lo <= want && want <= hi) {
			t.Fatalf("expBounds(%v) = [%v, %v] ok=%v does not hold math.Exp = %v", x, lo, hi, ok, want)
		}
		mid := (lo + hi) / 2
		worst = math.Max(worst, math.Abs(mid/want-1))
	}
	// The approximation must sit deep inside its margin, or a host whose
	// math.Exp rounds differently could fall outside it.
	if worst > 1e-14 {
		t.Fatalf("worst relative error %.3g, want < 1e-14 (margin %g)", worst, expMargin)
	}
	for _, x := range []float64{expLimit, -expLimit, 3, -3, math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, _, ok := expBounds(x); ok {
			t.Fatalf("expBounds(%v) must defer to math.Exp", x)
		}
	}
}

func TestTickFallsBackWhenBoundsStraddle(t *testing.T) {
	// Aim each step exactly at a tick boundary: (t·e + overhead)·1e9 =
	// 1 ms to within the bracket's width, so lo lands below the tick and
	// hi on it. tick must notice, evaluate math.Exp, and return what
	// math.Exp gives.
	s := Stream{overhead: 2e-6}
	fallbacks := 0
	for _, x := range []float64{-0.31, -0.05, 0.013, 0.2, 0.5} {
		e := math.Exp(x)
		for _, target := range []float64{1e-3, 1e-2, 0.25} {
			t0 := (target - s.overhead) / e
			for _, tt := range []float64{math.Nextafter(t0, 0), t0, math.Nextafter(t0, 1)} {
				d, exact := s.tick(tt, x, 1)
				want := vclock.QuantizeMicro(s.elapsed(tt, e, 1))
				if d != want {
					t.Fatalf("tick(t=%v, x=%v) = %v, math.Exp gives %v", tt, x, d, want)
				}
				if exact {
					fallbacks++
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no step straddled a tick: the fallback branch never ran")
	}
	// Exponents outside the bracket always take math.Exp.
	for _, x := range []float64{0.7, -0.9, 2} {
		d, exact := s.tick(1e-3, x, 1.2)
		if !exact || d != vclock.QuantizeMicro(s.elapsed(1e-3, math.Exp(x), 1.2)) {
			t.Fatalf("tick(x=%v) = %v exact=%v, want the math.Exp result", x, d, exact)
		}
	}
}

func TestStepMatchesMathExp(t *testing.T) {
	// From sub-microsecond to half-second steps, and with a sigma large
	// enough to leave the bracket now and then, Step and Warmup replay the
	// math.Exp formula exactly.
	for _, steady := range []float64{3e-7, 4.2e-6, 1.7e-4, 2.3e-3, 0.5} {
		for _, sigma := range []float64{0.02, 0.3} {
			p := testPoint(steady)
			p.IterSigma = sigma
			for inv := uint64(0); inv < 20; inv++ {
				var s Stream
				s.Reset(&p, inv)
				ref := newMathExpStep(p, inv)
				if got, want := s.Warmup(), ref.step(); got != want {
					t.Fatalf("steady %g sigma %g inv %d: warm-up %v, formula %v", steady, sigma, inv, got, want)
				}
				ref.quantize = true
				for i := 0; i < 2000; i++ {
					if got, want := s.Step(), ref.step(); got != want {
						t.Fatalf("steady %g sigma %g inv %d step %d: %v, formula %v", steady, sigma, inv, i, got, want)
					}
				}
			}
		}
	}
}

func TestResetReplays(t *testing.T) {
	p := testPoint(1e-3)
	var a, b Stream
	a.Reset(&p, 9)
	for i := 0; i < 37; i++ {
		a.Step()
	}
	a.Reset(&p, 9)
	b.Reset(&p, 9)
	for i := 0; i < 1000; i++ {
		if x, y := a.Step(), b.Step(); x != y {
			t.Fatalf("step %d: reused stream %v, fresh stream %v", i, x, y)
		}
	}
}

func TestPassesScaleTheStep(t *testing.T) {
	// A point batching 8 passes takes 8 times as long per step as the
	// single pass, noise and all, before the overhead is added.
	one := testPoint(1e-4)
	one.Overhead = 0
	eight := one
	eight.Passes = 8
	var a, b Stream
	a.Reset(&one, 4)
	b.Reset(&eight, 4)
	for i := 0; i < 100; i++ {
		da, db := a.Step(), b.Step()
		if r := float64(db) / float64(da); r < 7.9 || r > 8.1 {
			t.Fatalf("step %d: 8 passes took %v, one pass %v", i, db, da)
		}
	}
}

func TestStepDoesNotAllocate(t *testing.T) {
	p := testPoint(1e-3)
	var s Stream
	s.Reset(&p, 1)
	if n := testing.AllocsPerRun(1000, func() { s.Step() }); n != 0 {
		t.Fatalf("Step allocates %v times per call", n)
	}
}

// BenchmarkStreamStep is the cost of one simulated sample.
func BenchmarkStreamStep(b *testing.B) {
	p := testPoint(1e-3)
	var s Stream
	s.Reset(&p, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
