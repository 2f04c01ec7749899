package stats

import "math"

// SteadyDetector implements the steady-state detection rule of Georges et
// al. (§II of the paper): a measurement stream is considered steady once
// the coefficient of variation of the last Window observations falls
// below Threshold. The paper's warm-up ramps (§III-C4) are exactly the
// non-steady phase this detects; internal/bench uses it to exclude
// warm-up samples from the stop-condition statistics.
type SteadyDetector struct {
	Window    int     // observations considered (Georges et al. use ~10)
	Threshold float64 // CoV bound, e.g. 0.02

	buf    []float64
	next   int
	filled int
	steady bool
}

// NewSteadyDetector returns a detector with the given window and
// threshold; non-positive arguments get the conventional defaults
// (window 10, threshold 0.02).
func NewSteadyDetector(window int, threshold float64) *SteadyDetector {
	if window <= 1 {
		window = 10
	}
	if threshold <= 0 {
		threshold = 0.02
	}
	return &SteadyDetector{Window: window, Threshold: threshold}
}

// Add records one observation and reports whether the stream is steady as
// of this observation. Once steady, the detector stays steady (the
// decision is one-shot, as in Georges et al.'s protocol: measurement
// starts after warm-up ends).
func (d *SteadyDetector) Add(x float64) bool {
	if d.steady {
		return true
	}
	if d.buf == nil {
		d.buf = make([]float64, d.Window)
	}
	d.buf[d.next] = x
	d.next = (d.next + 1) % d.Window
	if d.filled < d.Window {
		d.filled++
		if d.filled < d.Window {
			return false
		}
	}
	if d.windowCoV() < d.Threshold {
		d.steady = true
	}
	return d.steady
}

// Steady reports whether steady state has been declared.
func (d *SteadyDetector) Steady() bool { return d.steady }

func (d *SteadyDetector) windowCoV() float64 {
	var sum float64
	for _, v := range d.buf {
		sum += v
	}
	mean := sum / float64(d.Window)
	if mean == 0 {
		return math.Inf(1)
	}
	var ss float64
	for _, v := range d.buf {
		diff := v - mean
		ss += diff * diff
	}
	sd := math.Sqrt(ss / float64(d.Window-1))
	return sd / math.Abs(mean)
}

// EffectiveSampleSize returns the AR(1)-adjusted effective sample size
// n * (1-rho)/(1+rho) for lag-1 autocorrelation rho — the number of
// independent observations n correlated samples are worth. Confidence
// intervals computed from autocorrelated benchmark iterations are too
// narrow by sqrt(n/ESS); the distribution study reports this factor.
func EffectiveSampleSize(n int, rho float64) float64 {
	if n <= 0 {
		return 0
	}
	if rho >= 1 {
		return 1
	}
	if rho <= -1 {
		return float64(n)
	}
	ess := float64(n) * (1 - rho) / (1 + rho)
	if ess > float64(n) {
		return float64(n)
	}
	if ess < 1 {
		return 1
	}
	return ess
}

// Lag1Autocorrelation estimates the lag-1 autocorrelation of xs, the
// independence diagnostic behind Kalibera & Jones' "independent state"
// criterion (§II). Values near zero indicate the iteration-level samples
// can be treated as independent; strong positive values indicate the
// benchmark has not reached an independent state.
func Lag1Autocorrelation(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return 0
	}
	mean, variance := TwoPassMeanVariance(xs)
	if variance == 0 {
		return 0
	}
	var num float64
	for i := 1; i < n; i++ {
		num += (xs[i] - mean) * (xs[i-1] - mean)
	}
	// Denominator uses the sample variance times (n-1) = corrected SS.
	return num / (variance * float64(n-1))
}
