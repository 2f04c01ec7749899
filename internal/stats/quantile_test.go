package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"rooftune/internal/xrand"
)

func TestQuantileKnown(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Quantile(xs, 0); got != 15 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 50 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 35 {
		t.Fatalf("median = %v", got)
	}
	// R-7: q(0.4) with n=5: h = 1.6 -> 20 + 0.6*(35-20) = 29.
	if got := Quantile(xs, 0.4); math.Abs(got-29) > 1e-12 {
		t.Fatalf("q0.4 = %v, want 29", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw)+1)
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		xs = append(xs, 0)
		qa := float64(a) / 255
		qb := float64(b) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

func TestMedianIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if Median(xs) != 5 {
		t.Fatalf("median = %v", Median(xs))
	}
	if got := IQR(xs); got != 4 {
		t.Fatalf("IQR = %v, want 4", got)
	}
}

func TestSkewnessSigns(t *testing.T) {
	rightSkewed := []float64{1, 1, 1, 2, 2, 3, 10, 20}
	if Skewness(rightSkewed) <= 0 {
		t.Fatalf("right-skewed sample has skewness %v", Skewness(rightSkewed))
	}
	symmetric := []float64{-3, -2, -1, 0, 1, 2, 3}
	if math.Abs(Skewness(symmetric)) > 1e-9 {
		t.Fatalf("symmetric sample has skewness %v", Skewness(symmetric))
	}
	if Skewness([]float64{1, 2}) != 0 {
		t.Fatal("n<3 must return 0")
	}
	if Skewness([]float64{5, 5, 5, 5}) != 0 {
		t.Fatal("zero-variance must return 0")
	}
}

func TestJarqueBeraDiscriminates(t *testing.T) {
	// Normal data should get a high p-value; strongly lognormal
	// (right-skewed, like benchmark runtimes per the paper §III-C3) a
	// very low one.
	rng := xrand.New(99)
	normal := make([]float64, 2000)
	skewed := make([]float64, 2000)
	for i := range normal {
		normal[i] = rng.Normal()
		skewed[i] = rng.LogNormal(0, 1)
	}
	_, pNormal := JarqueBera(normal)
	_, pSkewed := JarqueBera(skewed)
	if pNormal < 0.01 {
		t.Fatalf("normal sample rejected: p=%v", pNormal)
	}
	if pSkewed > 1e-6 {
		t.Fatalf("lognormal sample not rejected: p=%v", pSkewed)
	}
}

func TestExcessKurtosisHeavyTails(t *testing.T) {
	rng := xrand.New(7)
	heavy := make([]float64, 5000)
	for i := range heavy {
		heavy[i] = rng.LogNormal(0, 1.2)
	}
	if ExcessKurtosis(heavy) <= 1 {
		t.Fatalf("lognormal(0,1.2) kurtosis %v should be clearly positive", ExcessKurtosis(heavy))
	}
	if ExcessKurtosis([]float64{1, 2, 3}) != 0 {
		t.Fatal("n<4 must return 0")
	}
}

func TestBootstrapCICoversTrueMean(t *testing.T) {
	rng := xrand.New(2024)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 50 + rng.Normal()*5
	}
	iv := BootstrapCI(xs, 0.99, 2000, xrand.New(1))
	mean, _ := TwoPassMeanVariance(xs)
	if iv.Mean != mean {
		t.Fatalf("bootstrap center %v != sample mean %v", iv.Mean, mean)
	}
	if iv.Lower > 50 || iv.Upper < 50 {
		t.Fatalf("99%% bootstrap CI %v should cover the true mean 50", iv)
	}
	if iv.Margin() <= 0 || iv.Margin() > 3 {
		t.Fatalf("implausible margin %v", iv.Margin())
	}
}

func TestBootstrapAgreesWithNormalCI(t *testing.T) {
	// For well-behaved data the bootstrap and normal-theory intervals
	// should nearly coincide — the paper's justification for using the
	// cheap normal interval online.
	rng := xrand.New(5)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = 100 + rng.Normal()*3
		w.Add(xs[i])
	}
	nb := NormalCI(&w, 0.95)
	bs := BootstrapCI(xs, 0.95, 4000, xrand.New(2))
	if math.Abs(nb.Margin()-bs.Margin())/nb.Margin() > 0.15 {
		t.Fatalf("normal margin %v vs bootstrap margin %v differ too much",
			nb.Margin(), bs.Margin())
	}
}

func TestBootstrapEdgeCases(t *testing.T) {
	iv := BootstrapCI(nil, 0.9, 100, xrand.New(1))
	if iv.Mean != 0 {
		t.Fatal("empty sample")
	}
	iv = BootstrapCI([]float64{7}, 0.9, 100, xrand.New(1))
	if iv.Lower != 7 || iv.Upper != 7 {
		t.Fatalf("singleton CI = %v", iv)
	}
}

func TestMannWhitneyIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	_, p := MannWhitneyU(a, a)
	if p < 0.9 {
		t.Fatalf("identical samples: p = %v, want ~1", p)
	}
}

func TestMannWhitneySeparatedSamples(t *testing.T) {
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i) + 1000
	}
	_, p := MannWhitneyU(a, b)
	if p > 1e-6 {
		t.Fatalf("fully separated samples: p = %v, want ~0", p)
	}
}

func TestMannWhitneyUStatisticRange(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		clean := func(xs []float64) []float64 {
			out := []float64{}
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) {
					out = append(out, x)
				}
			}
			return out
		}
		a, b := clean(rawA), clean(rawB)
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		u, p := MannWhitneyU(a, b)
		return u >= 0 && u <= float64(len(a)*len(b))+1e-9 && p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMannWhitneySymmetric(t *testing.T) {
	rng := xrand.New(3)
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = rng.Normal()
		b[i] = rng.Normal()
	}
	uA, pA := MannWhitneyU(a, b)
	uB, pB := MannWhitneyU(b, a)
	if math.Abs((uA+uB)-float64(len(a)*len(b))) > 1e-9 {
		t.Fatalf("U_a + U_b = %v, want n_a*n_b", uA+uB)
	}
	if math.Abs(pA-pB) > 1e-9 {
		t.Fatalf("two-sided p must be symmetric: %v vs %v", pA, pB)
	}
}

func TestQuantileSortedAgainstSort(t *testing.T) {
	// Quantile(xs, i/(n-1)) must equal the i-th order statistic.
	xs := []float64{9, 1, 7, 3, 5}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(xs)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		if got := Quantile(xs, q); got != sorted[i] {
			t.Fatalf("order statistic %d: got %v want %v", i, got, sorted[i])
		}
	}
}
