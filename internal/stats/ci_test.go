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

func TestStudentQuantileKnownValues(t *testing.T) {
	// Standard t-table values, two-sided 95% and 99%.
	cases := []struct {
		p    float64
		df   int
		want float64
	}{
		{0.975, 1, 12.7062},
		{0.975, 2, 4.30265},
		{0.975, 10, 2.22814},
		{0.995, 10, 3.16927},
		{0.995, 30, 2.74999},
		{0.975, 120, 1.97993},
		{0.95, 5, 2.01505},
	}
	for _, c := range cases {
		got := StudentQuantile(c.p, c.df)
		if math.Abs(got-c.want) > 2e-3 {
			t.Errorf("StudentQuantile(%v, %d) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
}

func TestStudentQuantileSymmetry(t *testing.T) {
	for _, df := range []int{1, 2, 5, 30} {
		if got := StudentQuantile(0.5, df); got != 0 {
			t.Errorf("median of t(%d) = %v", df, got)
		}
		a, b := StudentQuantile(0.9, df), StudentQuantile(0.1, df)
		if math.Abs(a+b) > 1e-9 {
			t.Errorf("t(%d) not symmetric: %v vs %v", df, a, b)
		}
	}
}

func TestStudentApproachesNormal(t *testing.T) {
	z := NormalQuantile(0.995)
	tq := StudentQuantile(0.995, 2000)
	if math.Abs(z-tq) > 5e-3 {
		t.Fatalf("t with high df %v should approach z %v", tq, z)
	}
}

func TestStudentCDFQuantileRoundTrip(t *testing.T) {
	for _, df := range []int{1, 3, 7, 29, 100} {
		for _, p := range []float64{0.05, 0.3, 0.5, 0.9, 0.995} {
			q := StudentQuantile(p, df)
			back := StudentCDF(q, df)
			if math.Abs(back-p) > 1e-6 {
				t.Errorf("CDF(Quantile(%v, %d)) = %v", p, df, back)
			}
		}
	}
}

func TestStudentWiderThanNormal(t *testing.T) {
	// Student intervals must be wider for small n (the reason the
	// UseStudentT extension is more conservative).
	for df := 1; df <= 50; df++ {
		if StudentQuantile(0.995, df) <= NormalQuantile(0.995) {
			t.Fatalf("t quantile not wider than z at df=%d", df)
		}
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
	ivT := StudentCI(&w, 0.99)
	if !math.IsInf(ivT.Upper, 1) {
		t.Fatalf("n=1 t-interval must be infinite: %v", ivT)
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
	if StudentCI(&w, 0.99).Margin() <= NormalCI(&w, 0.99).Margin() {
		t.Fatal("t CI must be wider than z CI at n=30")
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

func TestStudentQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for df=0")
		}
	}()
	StudentQuantile(0.9, 0)
}
