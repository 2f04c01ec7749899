// Package core is the autotuner — the paper's primary contribution. It
// defines the DGEMM search spaces with the paper's state-space
// reductions (§IV-A), the search orderings (forward, reverse, random),
// and the exhaustive-search tuner whose evaluation loop applies the
// adaptive stop conditions of internal/bench to terminate measurement as
// early as the statistics allow.
package core

import (
	"fmt"

	"rooftune/internal/bench"
	"rooftune/internal/units"
)

// Dims is one DGEMM configuration: C (n x m) <- A (n x k) * B (k x m).
type Dims struct {
	N, M, K int
}

// ConfigDims extracts the matrix dimensions of a typed DGEMM benchmark
// configuration.
func ConfigDims(cfg bench.DGEMMConfig) Dims {
	return Dims{N: cfg.N, M: cfg.M, K: cfg.K}
}

// String formats the dimensions the way the paper's Table V does.
func (d Dims) String() string { return fmt.Sprintf("%d,%d,%d", d.N, d.M, d.K) }

// Flops returns the work of one DGEMM with these dimensions.
func (d Dims) Flops() float64 { return units.DGEMMFlops(d.N, d.M, d.K) }

// pow2Range returns {lo, 2*lo, ..., hi}; lo and hi must be powers of two
// with lo <= hi.
func pow2Range(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v *= 2 {
		out = append(out, v)
	}
	return out
}

// cross builds the cartesian product of the axis value sets in row-major
// (n-outer, k-inner) order — the paper's forward search order, which
// visits small-n configurations first (Fig. 6 shows cost growing with
// size, making this the cheap-first order).
func cross(ns, ms, ks []int) []Dims {
	out := make([]Dims, 0, len(ns)*len(ms)*len(ks))
	for _, n := range ns {
		for _, m := range ms {
			for _, k := range ks {
				out = append(out, Dims{N: n, M: m, K: k})
			}
		}
	}
	return out
}

// InitialDGEMMSpace is the paper's first proposal (§IV-A): powers of two,
// n,m in 64..4096 and k in 2..2048, cardinality 7*7*11 = 539 (Eq. 8).
func InitialDGEMMSpace() []Dims {
	return cross(pow2Range(64, 4096), pow2Range(64, 4096), pow2Range(2, 2048))
}

// ReducedDGEMMSpace narrows the ranges after the observation that low
// values perform poorly: n,m in 512..4096 and k in 64..2048, cardinality
// 4*4*6 = 96.
func ReducedDGEMMSpace() []Dims {
	return cross(pow2Range(512, 4096), pow2Range(512, 4096), pow2Range(64, 2048))
}

// UnionDGEMMSpace is the space the paper's own Table V results imply: its
// optima mix powers of two (512, 1024, 2048, 4096) with the Intel
// multiples (500, 1000, 2000, 4000) in the same configuration, so the
// n and m axes must have contained both families. Cardinality 8*8*6 = 384.
// The paper's text claims |S| = 96 after the adjustment; the discrepancy
// is recorded in DESIGN.md §4 and EXPERIMENTS.md. This is the default
// space for reproducing Tables IV, V and VIII-XI.
func UnionDGEMMSpace() []Dims {
	axis := []int{500, 512, 1000, 1024, 2000, 2048, 4000, 4096}
	return cross(axis, axis, pow2Range(64, 2048))
}

// SquareDGEMMSpace constrains m = n = k — the space Intel's benchmarking
// guide searched (§IV-A); the paper's constraint-specification study shows
// non-square configurations beat every point in it.
func SquareDGEMMSpace() []Dims {
	var out []Dims
	for _, v := range []int{500, 512, 1000, 1024, 2000, 2048, 4000, 4096} {
		out = append(out, Dims{N: v, M: v, K: v})
	}
	return out
}

// ConstrainedMNSpace applies the m = n constraint specification studied in
// §IV-A (k still free), reducing cardinality by a factor of the m-axis.
func ConstrainedMNSpace() []Dims {
	var out []Dims
	for _, v := range []int{500, 512, 1000, 1024, 2000, 2048, 4000, 4096} {
		for _, k := range pow2Range(64, 2048) {
			out = append(out, Dims{N: v, M: v, K: k})
		}
	}
	return out
}
