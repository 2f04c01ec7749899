package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return math.Abs(a-b) <= tol*scale
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("empty accumulator must be all zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Fatalf("single observation: %+v", w)
	}
}

func TestWelfordKnownValues(t *testing.T) {
	// Hand-computed: {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population var 4,
	// sample var 32/7.
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Mean() != 5 {
		t.Fatalf("mean = %v", w.Mean())
	}
	if !almostEq(w.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("variance = %v, want %v", w.Variance(), 32.0/7)
	}
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	// The property the paper relies on: Welford's online update (Eqs.
	// 6-7) equals the definitional two-pass computation.
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		var w Welford
		for _, x := range clean {
			w.Add(x)
		}
		mean, variance := TwoPassMeanVariance(clean)
		return almostEq(w.Mean(), mean, 1e-9) && almostEq(w.Variance(), variance, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset: naive sum-of-squares would lose all precision here;
	// Welford must not.
	var w Welford
	const offset = 1e9
	for _, x := range []float64{4, 7, 13, 16} {
		w.Add(offset + x)
	}
	if !almostEq(w.Variance(), 30, 1e-6) {
		t.Fatalf("variance with offset: %v, want 30", w.Variance())
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(5)
	w.Reset()
	if w.N() != 0 || w.Mean() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestWelfordStdErrShrinks(t *testing.T) {
	// StdErr must scale as 1/sqrt(n) for i.i.d.-like data.
	var w Welford
	for i := 0; i < 100; i++ {
		w.Add(float64(i % 10))
	}
	se100 := w.StdErr()
	for i := 0; i < 300; i++ {
		w.Add(float64(i % 10))
	}
	if w.StdErr() >= se100 {
		t.Fatalf("standard error did not shrink: %v -> %v", se100, w.StdErr())
	}
}

func TestTwoPassEdgeCases(t *testing.T) {
	if m, v := TwoPassMeanVariance(nil); m != 0 || v != 0 {
		t.Fatal("nil sample")
	}
	if m, v := TwoPassMeanVariance([]float64{3}); m != 3 || v != 0 {
		t.Fatal("singleton sample")
	}
}
