package bench

import (
	"math"
	"testing"

	"rooftune/internal/stats"
	"rooftune/internal/xrand"
)

// The evaluator decides stop conditions 3 and 4 under the normal
// interval by comparing squares (intervals.converged, intervals.beaten)
// and builds the interval only near a tie. These tests hold both
// decisions to the expressions on the built interval, the oracle below,
// bit for bit: random Welford states, and states placed within a few
// ulps of each decision's boundary.

func oracleConverged(ci intervals, w *stats.Welford, t float64) bool {
	return ci.of(w).RelativeHalfWidth() <= t
}

func oracleBeaten(ci intervals, w *stats.Welford, best float64) bool {
	iv := ci.of(w)
	return iv.Mean+iv.Margin() < best
}

// stepULPs moves x by k ulps (toward +Inf for k > 0).
func stepULPs(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// checkStopDecision compares both decisions with the oracle at the given
// target and incumbent, and at every target and incumbent within ulps of
// the oracle's own boundary (RelativeHalfWidth, Mean+Margin).
func checkStopDecision(tb testing.TB, ci intervals, w *stats.Welford, target, best float64, ulps int) {
	tb.Helper()
	check := func(target, best float64) {
		if got, want := ci.converged(w, target), oracleConverged(ci, w, target); got != want {
			iv := ci.of(w)
			tb.Fatalf("converged(%v, t=%v) = %v, interval says %v (%v, rel %v, student %v, z %v)",
				w, target, got, want, iv, iv.RelativeHalfWidth(), ci.studentT, ci.z)
		}
		if got, want := ci.beaten(w, best), oracleBeaten(ci, w, best); got != want {
			iv := ci.of(w)
			tb.Fatalf("beaten(%v, best=%v) = %v, interval says %v (%v, mean+margin %v, student %v, z %v)",
				w, best, got, want, iv, iv.Mean+iv.Margin(), ci.studentT, ci.z)
		}
	}
	check(target, best)
	iv := ci.of(w)
	rel, top := iv.RelativeHalfWidth(), iv.Mean+iv.Margin()
	for k := -ulps; k <= ulps; k++ {
		check(stepULPs(rel, k), stepULPs(top, k))
	}
}

// randomLevel draws a confidence level: mostly the usual ones, sometimes
// anywhere in (0,1), down to levels whose quantile is nearly zero.
func randomLevel(rng *xrand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return 0.99
	case 1:
		return 0.95
	case 2:
		return math.Pow(10, -rng.Float64()*20)
	default:
		return 1 - math.Pow(10, -rng.Float64()*15)
	}
}

// randomStream draws one sample stream of the shape a case produces
// (positive, clustered) or an adversarial one: huge or tiny magnitudes,
// symmetric around zero, constant, or with NaN and ±Inf.
func randomStream(rng *xrand.Rand, n int) []float64 {
	xs := make([]float64, n)
	base := math.Pow(10, 6+7*rng.Float64())
	sigma := math.Pow(10, -6+5.5*rng.Float64())
	kind := rng.Intn(10)
	switch kind {
	case 1: // huge
		base = math.Pow(10, 250+58*rng.Float64())
	case 2: // tiny, down to subnormal
		base = math.Pow(10, -250-73*rng.Float64())
	}
	for i := range xs {
		xs[i] = base * math.Exp(sigma*rng.Normal())
	}
	switch kind {
	case 3: // symmetric: every even prefix has mean exactly zero
		for i := 1; i < n; i += 2 {
			xs[i] = -xs[i-1]
		}
	case 4: // constant: C == 0
		for i := range xs {
			xs[i] = base
		}
	case 5: // one non-finite sample
		xs[rng.Intn(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	case 6: // near-constant: C at the edge of cancellation
		for i := range xs {
			xs[i] = stepULPs(base, rng.Intn(3))
		}
	case 7: // negative means
		for i := range xs {
			xs[i] = -xs[i]
		}
	}
	return xs
}

// TestStopDecisionMatchesInterval runs the comparison over more than
// 10^6 Welford states: every prefix of n >= 2 of many random streams,
// each at a random target and incumbent and at the four ulps either side
// of both boundaries.
func TestStopDecisionMatchesInterval(t *testing.T) {
	rng := xrand.New(25)
	states := 0
	for states < 1000000 {
		level := randomLevel(rng)
		ci := new(Evaluator).intervals(Budget{CILevel: level, UseStudentT: rng.Intn(50) == 0})
		xs := randomStream(rng, 2+rng.Intn(40))
		var w stats.Welford
		for i, x := range xs {
			w.Add(x)
			if i == 0 {
				continue
			}
			target := math.Pow(10, -6+7*rng.Float64())
			best := w.Mean() * (1 + math.Pow(10, -12+12*rng.Float64())*rng.Normal())
			if rng.Intn(20) == 0 {
				target, best = []float64{0, math.Inf(1), math.NaN()}[rng.Intn(3)], []float64{0, math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(4)]
			}
			checkStopDecision(t, ci, &w, target, best, 4)
			states++
		}
	}
}

// FuzzStopDecision drives the same comparison from fuzzed streams:
// samples a, b and c repeated in turn to n samples, a level, a target,
// an incumbent, and how many ulps around each boundary to probe.
func FuzzStopDecision(f *testing.F) {
	f.Add(1.2e12, 1.21e12, 1.19e12, uint8(5), 0.99, 0.01, 1.3e12, uint8(4), false)
	f.Add(1.0, 1.0, 1.0, uint8(2), 0.99, 0.01, 1.0, uint8(2), false)            // C == 0
	f.Add(3.0, -3.0, 0.5, uint8(2), 0.95, 0.01, 0.0, uint8(3), false)           // mean == 0
	f.Add(1e300, 1.5e300, 1e300, uint8(9), 0.99, 0.01, 1e301, uint8(4), false)  // huge
	f.Add(1e-310, 3e-310, 2e-310, uint8(7), 0.99, 0.5, 1e-309, uint8(4), false) // subnormal
	f.Add(math.NaN(), 1.0, 2.0, uint8(4), 0.99, 0.01, 2.0, uint8(1), false)
	f.Add(math.Inf(1), 1.0, 2.0, uint8(4), 0.99, 0.01, math.Inf(1), uint8(1), false)
	f.Add(5e9, 5.1e9, 4.9e9, uint8(30), 1e-18, 1e-9, 5e9, uint8(4), false) // tiny quantile
	f.Add(5e9, 5.1e9, 4.9e9, uint8(30), 0.99, 0.01, 5.2e9, uint8(4), true) // Student-t
	f.Fuzz(func(t *testing.T, a, b, c float64, n uint8, level, target, best float64, ulps uint8, student bool) {
		if n < 2 {
			n = 2
		}
		ci := new(Evaluator).intervals(Budget{CILevel: level, UseStudentT: student}.normalized())
		var w stats.Welford
		xs := [3]float64{a, b, c}
		for i := 0; i < int(n); i++ {
			w.Add(xs[i%3])
		}
		checkStopDecision(t, ci, &w, target, best, int(ulps%16))
	})
}
