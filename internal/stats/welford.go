// Package stats implements the statistical machinery behind the paper's
// adaptive stop conditions: Welford's online mean/variance (Eqs. 5-7),
// normal-theory and Student-t confidence intervals, steady-state
// detection, order statistics, bootstrap confidence intervals, and the
// nonparametric comparisons suggested in the paper's future-work section.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates a sample mean and corrected sum of squares online,
// one observation at a time, without storing the observations. This is the
// algorithm of Welford (1962) referenced by the paper (Eqs. 6-7):
//
//	m_n = ((n-1)/n) m_{n-1} + x_n / n
//	C_n = C_{n-1} + ((n-1)/n) (x_n - m_{n-1})^2
//
// The zero value is an empty accumulator ready for use.
type Welford struct {
	n    int64   // number of observations
	mean float64 // running mean m_n
	c    float64 // corrected sum of squares C_n
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.mean = x
		w.c = 0
		return
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	// C_n = C_{n-1} + ((n-1)/n) * delta^2  ==  C_{n-1} + delta*(x - new mean)
	w.c += delta * (x - w.mean)
}

// N returns the number of observations accumulated.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance S^2 = C_n/(n-1) (Eq. 5).
// It returns 0 when fewer than two observations have been added.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.c / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean, S/sqrt(n).
func (w *Welford) StdErr() float64 {
	if w.n < 1 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Reset empties the accumulator for reuse.
func (w *Welford) Reset() { *w = Welford{} }

// String summarises the accumulator for debugging.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%g sd=%g", w.n, w.Mean(), w.StdDev())
}

// TwoPassMeanVariance computes the sample mean and unbiased variance of xs
// with the classical two-pass formula. It exists as the numerically
// trustworthy oracle that the property tests compare Welford against, and
// as the baseline for the Welford-vs-two-pass ablation benchmark.
func TwoPassMeanVariance(xs []float64) (mean, variance float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(n-1)
}
