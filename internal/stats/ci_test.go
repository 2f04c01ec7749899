package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829}, // the paper's 99% two-sided z
		{0.841344746, 1.0},
		{0.025, -1.959964},
		{0.0005, -3.290527},
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileCDFInverse(t *testing.T) {
	f := func(raw uint16) bool {
		p := (float64(raw) + 1) / 65538 // in (0,1)
		z := NormalQuantile(p)
		return math.Abs(NormalCDF(z)-p) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v): want panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestNormalCIKnown(t *testing.T) {
	var w Welford
	for _, x := range []float64{8, 9, 10, 11, 12} {
		w.Add(x)
	}
	iv := NormalCI(&w, 0.99)
	// mean 10, sd sqrt(2.5), se sqrt(0.5); marg = 2.5758 * 0.7071
	wantMarg := 2.575829 * math.Sqrt(2.5/5)
	if iv.Mean != 10 {
		t.Fatalf("CI mean %v", iv.Mean)
	}
	if math.Abs(iv.Margin()-wantMarg) > 1e-4 {
		t.Fatalf("CI margin %v, want %v", iv.Margin(), wantMarg)
	}
	if iv.Lower > 10 || iv.Upper < 10 || iv.Upper >= 20 {
		t.Fatalf("CI %v must cover 10 and not 20", iv)
	}
}

func TestCISmallSampleInfinite(t *testing.T) {
	var w Welford
	w.Add(5)
	iv := NormalCI(&w, 0.99)
	if !math.IsInf(iv.Lower, -1) || !math.IsInf(iv.Upper, 1) {
		t.Fatalf("n=1 interval must be infinite: %v", iv)
	}
}

func TestCIShrinksWithN(t *testing.T) {
	// Adding more samples from the same population must (statistically)
	// shrink the margin; with a deterministic repeating pattern it is
	// guaranteed.
	var w Welford
	pattern := []float64{9, 10, 11}
	for i := 0; i < 9; i++ {
		w.Add(pattern[i%3])
	}
	m9 := NormalCI(&w, 0.99).Margin()
	for i := 0; i < 90; i++ {
		w.Add(pattern[i%3])
	}
	m99 := NormalCI(&w, 0.99).Margin()
	if m99 >= m9 {
		t.Fatalf("margin did not shrink: %v -> %v", m9, m99)
	}
}

func TestCILevelOrdering(t *testing.T) {
	var w Welford
	for i := 0; i < 30; i++ {
		w.Add(float64(i % 7))
	}
	if NormalCI(&w, 0.99).Margin() <= NormalCI(&w, 0.95).Margin() {
		t.Fatal("99% CI must be wider than 95% CI")
	}
}

func TestRelativeHalfWidth(t *testing.T) {
	iv := Interval{Mean: 100, Lower: 99, Upper: 101}
	if got := iv.RelativeHalfWidth(); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("RelativeHalfWidth = %v, want 0.01 (the paper's ±1%% rule)", got)
	}
	zero := Interval{Mean: 0, Lower: -1, Upper: 1}
	if !math.IsInf(zero.RelativeHalfWidth(), 1) {
		t.Fatal("zero mean with nonzero margin must be +Inf")
	}
}
