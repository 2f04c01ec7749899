package xrand

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws of 1000", same)
	}
}

func TestMixIsPure(t *testing.T) {
	x := Mix(1, 2, 3)
	for i := 0; i < 10; i++ {
		if Mix(1, 2, 3) != x {
			t.Fatal("Mix not deterministic")
		}
	}
	if Mix(1, 2, 3) == Mix(3, 2, 1) {
		t.Fatal("Mix should be order-sensitive")
	}
	if Mix(1) == Mix(2) {
		t.Fatal("Mix collision on trivially different inputs")
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Mix(0xDEADBEEF, 7)
	var totalFlips int
	const trials = 64
	for b := 0; b < trials; b++ {
		flipped := Mix(0xDEADBEEF^(1<<uint(b)), 7)
		totalFlips += popcount(base ^ flipped)
	}
	avg := float64(totalFlips) / trials
	if avg < 24 || avg > 40 {
		t.Fatalf("poor avalanche: average %.1f bits flipped (want ~32)", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := New(11)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Fatalf("uniform variance %v, want ~1/12", variance)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(19)
	const n = 50001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(0, 0.5)
		if vals[i] <= 0 {
			t.Fatal("lognormal must be positive")
		}
	}
	sort.Float64s(vals)
	med := vals[n/2]
	if math.Abs(med-1) > 0.03 {
		t.Fatalf("lognormal(0, 0.5) median %v, want ~e^0 = 1", med)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(29)
	const (
		shape = 2.0
		scale = 0.5
		n     = 100000
	)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Gamma(shape, scale)
		if v < 0 {
			t.Fatal("gamma must be non-negative")
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-shape*scale) > 0.02 {
		t.Fatalf("gamma mean %v, want %v", mean, shape*scale)
	}
	if math.Abs(variance-shape*scale*scale) > 0.03 {
		t.Fatalf("gamma variance %v, want %v", variance, shape*scale*scale)
	}
}

func TestGammaSmallShape(t *testing.T) {
	r := New(31)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Gamma(0.5, 1)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.03 {
		t.Fatalf("gamma(0.5,1) mean %v, want ~0.5", mean)
	}
}

func TestGammaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-positive shape")
		}
	}()
	New(1).Gamma(0, 1)
}

func TestBernoulli(t *testing.T) {
	r := New(37)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(41)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for Intn(0)")
		}
	}()
	r.Intn(0)
}

func TestResetMatchesNew(t *testing.T) {
	// A reused generator must replay a fresh one exactly, including a
	// Box-Muller spare left over from its previous stream.
	r := New(5)
	r.Normal() // leaves a cached spare behind
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		r.Reset(seed)
		fresh := New(seed)
		for i := 0; i < 1000; i++ {
			if a, b := r.Normal(), fresh.Normal(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: draw %d after Reset = %v, New = %v", seed, i, a, b)
			}
		}
	}
}

func TestNormalSincosMatchesSinAndCos(t *testing.T) {
	// Normal takes the Box-Muller pair from one math.Sincos call; every
	// simulated sample depends on it returning the same bits as separate
	// math.Sin and math.Cos calls, as the transform was first written.
	r, u := New(77), New(77)
	for i := 0; i < 1000000; i += 2 {
		var a float64
		for a == 0 {
			a = u.Float64()
		}
		v := u.Float64()
		mag := math.Sqrt(-2 * math.Log(a))
		wantCos, wantSin := mag*math.Cos(2*math.Pi*v), mag*math.Sin(2*math.Pi*v)
		if got := r.Normal(); math.Float64bits(got) != math.Float64bits(wantCos) {
			t.Fatalf("draw %d = %v, Sin/Cos transform %v", i, got, wantCos)
		}
		if got := r.Normal(); math.Float64bits(got) != math.Float64bits(wantSin) {
			t.Fatalf("draw %d = %v, Sin/Cos transform %v", i+1, got, wantSin)
		}
	}
}
