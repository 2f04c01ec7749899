package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the R-7 definition used by most
// statistics packages). It panics on an empty sample or q outside [0,1].
// xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%g out of [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return s[n-1]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Skewness returns the adjusted Fisher-Pearson sample skewness of xs,
// or 0 for samples smaller than 3 or with zero variance.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	mean, variance := TwoPassMeanVariance(xs)
	if variance == 0 {
		return 0
	}
	sd := math.Sqrt(variance)
	var m3 float64
	for _, x := range xs {
		d := (x - mean) / sd
		m3 += d * d * d
	}
	return n / ((n - 1) * (n - 2)) * m3
}

// ExcessKurtosis returns the sample excess kurtosis (normal = 0) of xs, or
// 0 for samples smaller than 4 or with zero variance.
func ExcessKurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return 0
	}
	mean, variance := TwoPassMeanVariance(xs)
	if variance == 0 {
		return 0
	}
	var m4 float64
	for _, x := range xs {
		d := x - mean
		m4 += d * d * d * d
	}
	m4 /= n
	g2 := m4/(variance*variance*(n-1)/n*(n-1)/n) - 3
	// small-sample adjustment
	return ((n+1)*g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
}

// JarqueBera returns the Jarque-Bera normality statistic of xs and an
// approximate p-value from its asymptotic chi-squared(2) distribution.
// The paper notes measured runtime distributions are "usually non-normal";
// the reporting layer uses this to flag such configurations.
func JarqueBera(xs []float64) (stat, pValue float64) {
	n := float64(len(xs))
	if n < 4 {
		return 0, 1
	}
	s := Skewness(xs)
	k := ExcessKurtosis(xs)
	stat = n / 6 * (s*s + k*k/4)
	// chi^2(2) survival function is exp(-x/2).
	pValue = math.Exp(-stat / 2)
	return stat, pValue
}
