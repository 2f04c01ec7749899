package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile, at most the 99th, that still
// has at least twenty samples beyond it, so that the tail of one run is
// not decided by a handful of samples; with fewer than forty samples it
// is the median.
func tailQuantile(n int) float64 {
	for p := 99; p > 50; p-- {
		if float64(n)*(1-float64(p)/100) >= 20 {
			return float64(p) / 100
		}
	}
	return 0.5
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// selfPeakRSSMiB is this process's peak resident set (getrusage reports
// KiB on Linux).
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// relErr is |a-b|/|b|.
func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}
