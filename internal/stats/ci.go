package stats

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval for a mean.
type Interval struct {
	Mean  float64
	Lower float64
	Upper float64
	Level float64 // confidence level in (0,1), e.g. 0.99
}

// Margin returns the half-width of the interval — the quantity the paper
// calls "marg" in Listing 1.
func (iv Interval) Margin() float64 { return iv.Upper - iv.Mean }

// RelativeHalfWidth returns Margin/|Mean|, the quantity compared against
// the ±1% threshold of stop condition 3. Returns +Inf for a zero mean with
// a nonzero margin.
func (iv Interval) RelativeHalfWidth() float64 {
	if iv.Mean == 0 {
		if iv.Margin() == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return iv.Margin() / math.Abs(iv.Mean)
}

func (iv Interval) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] @%.0f%%", iv.Mean, iv.Lower, iv.Upper, iv.Level*100)
}

// NormalCI returns the confidence interval of the mean accumulated in w,
// assuming normality as the paper does (§III-C3): mean ± z * S/sqrt(n).
// With fewer than two observations the interval has infinite width.
func NormalCI(w *Welford, level float64) Interval {
	if w.N() < 2 {
		return NormalCIWithZ(w, level, 0)
	}
	return NormalCIWithZ(w, level, NormalQuantile(0.5+level/2))
}

// NormalCIWithZ is NormalCI with its quantile z = NormalQuantile(0.5 +
// level/2) supplied by the caller, so a loop that builds an interval per
// sample at one level computes the quantile once. The interval is
// bit-identical to NormalCI's.
func NormalCIWithZ(w *Welford, level, z float64) Interval {
	iv := Interval{Mean: w.Mean(), Level: level}
	if w.N() < 2 {
		iv.Lower, iv.Upper = math.Inf(-1), math.Inf(1)
		return iv
	}
	marg := z * w.StdErr()
	iv.Lower, iv.Upper = iv.Mean-marg, iv.Mean+marg
	return iv
}

// marginSlack scales the band around a tie in which MarginBelow declines
// to decide: |margin - d| < marginSlack*(|mean| + d). Interval's
// Mean+Margin() and RelativeHalfWidth() round within about 10 units of
// 2^-53 of that scale, the squared comparison within about 4; the slack
// is 2^9 such units, so a decided comparison always agrees with them.
// (internal/bench's TestStopDecisionMatchesInterval finds disagreements
// at a slack of 2^-51 and none from 2^-50.)
const marginSlack = 0x1p-44

// marginTiny bounds the operands MarginBelow decides on from below (and
// marginHuge bounds d from above), so that no intermediate of the
// squared comparison or of NormalCIWithZ is subnormal, where rounding
// errors stop being relative.
const (
	marginTiny = 0x1p-800
	marginHuge = 0x1p400
)

// MarginBelow compares the half-width of the normal interval of w's
// mean, marg = z*S/sqrt(n) as NormalCIWithZ builds it, with d > 0,
// without a square root: it compares z2*C with d*d*n*(n-1), where z2 is
// z*z and C the accumulator's corrected sum of squares. When decided is
// true, below reports marg < d, and equals the built Interval's own
// test, rounding included: RelativeHalfWidth() <= t for d = t*|mean|,
// and Mean+Margin() < best for d = best-mean. decided is false when the
// two sides are within marginSlack of a tie, when n < 2, or when any
// operand is zero, NaN, ±Inf or out of range; the caller then decides
// with the Interval.
//
//rooflint:hotpath
func (w *Welford) MarginBelow(z2, d float64) (below, decided bool) {
	lhs := z2 * w.c
	if w.n < 2 || !(d >= marginTiny && d <= marginHuge) || !(lhs >= marginTiny && lhs <= math.MaxFloat64) {
		return false, false
	}
	tol := marginSlack * (math.Abs(w.mean) + d)
	nn := float64(w.n) * float64(w.n-1)
	if hi := d + tol; lhs > hi*hi*nn {
		return false, true
	}
	if lo := d - tol; lo > 0 && lhs < lo*lo*nn {
		return true, true
	}
	return false, false
}

// StudentCI returns the Student-t confidence interval of the mean, the
// small-sample-correct alternative (Georges et al. recommend t for n < 30).
func StudentCI(w *Welford, level float64) Interval {
	iv := Interval{Mean: w.Mean(), Level: level}
	if w.N() < 2 {
		iv.Lower, iv.Upper = math.Inf(-1), math.Inf(1)
		return iv
	}
	t := StudentQuantile(0.5+level/2, int(w.N()-1))
	marg := t * w.StdErr()
	iv.Lower, iv.Upper = iv.Mean-marg, iv.Mean+marg
	return iv
}

// NormalQuantile returns the p-quantile of the standard normal
// distribution using the Acklam rational approximation (relative error
// below 1.15e-9 over the full domain), sufficient for CI construction.
// It panics for p outside (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: NormalQuantile p=%g out of (0,1)", p))
	}
	// Coefficients of Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// NormalCDF returns the standard normal cumulative distribution function,
// used by the nonparametric tests.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// StudentQuantile returns the p-quantile of Student's t distribution with
// df degrees of freedom. It uses the Hill (1970) inversion via the
// relationship with the incomplete beta function, refined with one
// Newton step; accuracy is better than 1e-6 for df >= 1, ample for CI
// construction. It panics for p outside (0,1) or df < 1.
func StudentQuantile(p float64, df int) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: StudentQuantile p=%g out of (0,1)", p))
	}
	if df < 1 {
		panic(fmt.Sprintf("stats: StudentQuantile df=%d < 1", df))
	}
	if p == 0.5 {
		return 0
	}
	if p < 0.5 {
		return -StudentQuantile(1-p, df)
	}
	n := float64(df)
	// Special closed forms.
	switch df {
	case 1:
		return math.Tan(math.Pi * (p - 0.5))
	case 2:
		a := 2*p - 1
		return a * math.Sqrt(2/(1-a*a))
	}
	// Cornish-Fisher style expansion around the normal quantile
	// (Abramowitz & Stegun 26.7.5), then polish with Newton iterations on
	// the CDF. The expansion alone is good to ~1e-4; two Newton steps take
	// it to ~1e-9 in the regions CI construction uses.
	z := NormalQuantile(p)
	g1 := (z*z*z + z) / 4
	g2 := (5*math.Pow(z, 5) + 16*z*z*z + 3*z) / 96
	g3 := (3*math.Pow(z, 7) + 19*math.Pow(z, 5) + 17*z*z*z - 15*z) / 384
	g4 := (79*math.Pow(z, 9) + 776*math.Pow(z, 7) + 1482*math.Pow(z, 5) - 1920*z*z*z - 945*z) / 92160
	t := z + g1/n + g2/(n*n) + g3/(n*n*n) + g4/(n*n*n*n)
	for i := 0; i < 3; i++ {
		cdf := StudentCDF(t, df)
		pdf := studentPDF(t, n)
		if pdf == 0 {
			break
		}
		step := (cdf - p) / pdf
		t -= step
		if math.Abs(step) < 1e-12*(1+math.Abs(t)) {
			break
		}
	}
	return t
}

func studentPDF(t, n float64) float64 {
	lg := lgamma((n+1)/2) - lgamma(n/2)
	return math.Exp(lg) / math.Sqrt(n*math.Pi) * math.Pow(1+t*t/n, -(n+1)/2)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// StudentCDF returns the cumulative distribution function of Student's t
// with df degrees of freedom, via the regularized incomplete beta function.
func StudentCDF(t float64, df int) float64 {
	if df < 1 {
		panic("stats: StudentCDF df < 1")
	}
	n := float64(df)
	if t == 0 {
		return 0.5
	}
	x := n / (n + t*t)
	ib := regIncBeta(n/2, 0.5, x)
	if t > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// regIncBeta computes the regularized incomplete beta function I_x(a,b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
