// Package spmv is the native sparse kernel substrate: a CSR sparse
// matrix-vector product (y = A*x) parallelised over row chunks, plus the
// density-parameterised synthetic matrices the SpMV workload tunes on.
// SpMV's arithmetic intensity sits between TRIAD's and DGEMM's — two
// FLOPs per stored element against twelve bytes of value+index traffic —
// which is exactly the memory-bound roofline region the paper's §VII
// names as the next benchmarking target.
package spmv

import (
	"fmt"

	"rooftune/internal/parallel"
	"rooftune/internal/units"
	"rooftune/internal/xrand"
)

// CSR is a compressed-sparse-row matrix of size N x N. Column indices are
// int32: halving the index footprint against the 8-byte values is what
// gives SpMV its characteristic 12-bytes-per-nonzero stream.
type CSR struct {
	N      int
	RowPtr []int     // len N+1; row i occupies [RowPtr[i], RowPtr[i+1])
	Col    []int32   // len NNZ, ascending within each row
	Val    []float64 // len NNZ
}

// NNZ returns the number of stored elements.
func (a *CSR) NNZ() int { return len(a.Val) }

// Validate reports whether the structure is internally consistent; the
// engines call it once per sweep so a malformed synthetic matrix fails
// loudly rather than producing an out-of-range panic mid-measurement.
func (a *CSR) Validate() error {
	switch {
	case a.N <= 0:
		return fmt.Errorf("spmv: non-positive dimension %d", a.N)
	case len(a.RowPtr) != a.N+1:
		return fmt.Errorf("spmv: RowPtr length %d, want %d", len(a.RowPtr), a.N+1)
	case a.RowPtr[0] != 0 || a.RowPtr[a.N] != len(a.Val):
		return fmt.Errorf("spmv: RowPtr bounds [%d, %d], want [0, %d]", a.RowPtr[0], a.RowPtr[a.N], len(a.Val))
	case len(a.Col) != len(a.Val):
		return fmt.Errorf("spmv: %d columns for %d values", len(a.Col), len(a.Val))
	}
	for i := 0; i < a.N; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("spmv: row %d has negative length", i)
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if c := int(a.Col[p]); c < 0 || c >= a.N {
				return fmt.Errorf("spmv: row %d column %d out of range", i, c)
			}
		}
	}
	return nil
}

// Synthetic builds a deterministic n x n matrix with nnzPerRow stored
// elements per row: the diagonal plus nnzPerRow-1 pseudo-random
// off-diagonal columns drawn from a seeded stream, so equal (n, nnzPerRow,
// seed) triples build bit-identical matrices on every host. The density
// nnzPerRow/n parameterises where the workload's intensity lands; the
// scattered columns are what exercise the gather-heavy access pattern that
// separates SpMV from TRIAD.
func Synthetic(n, nnzPerRow int, seed uint64) *CSR {
	if n <= 0 {
		panic(fmt.Sprintf("spmv: Synthetic with n=%d", n))
	}
	if nnzPerRow < 1 {
		nnzPerRow = 1
	}
	if nnzPerRow > n {
		nnzPerRow = n
	}
	a := &CSR{
		N:      n,
		RowPtr: make([]int, n+1),
		Col:    make([]int32, 0, n*nnzPerRow),
		Val:    make([]float64, 0, n*nnzPerRow),
	}
	rng := xrand.New(xrand.Mix(seed, 0x59a3, uint64(n), uint64(nnzPerRow)))
	cols := make([]int32, 0, nnzPerRow)
	seen := make(map[int32]bool, nnzPerRow)
	for i := 0; i < n; i++ {
		cols = cols[:0]
		for k := range seen {
			delete(seen, k)
		}
		cols = append(cols, int32(i)) // diagonal anchors every row
		seen[int32(i)] = true
		for len(cols) < nnzPerRow {
			c := int32(rng.Intn(n))
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
		sortInt32(cols)
		for _, c := range cols {
			a.Col = append(a.Col, c)
			// Values in (0, 1], derived from the position so the product is
			// checkable without storing a dense mirror.
			a.Val = append(a.Val, 0.5+0.5*rng.Float64())
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	return a
}

// sortInt32 is an insertion sort: rows hold tens of columns, below the
// crossover where sort.Slice's interface overhead wins.
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Flops returns the floating-point work of one y = A*x: a multiply and an
// add per stored element.
func (a *CSR) Flops() float64 { return 2 * float64(a.NNZ()) }

// Bytes returns the minimum memory traffic of one y = A*x in bytes: the
// value and int32 column streams, one pass over RowPtr, x loaded once
// (the gather lower bound) and y written once. Real traffic is higher
// when the gather misses; like units.DGEMMBytes this lower bound is what
// places the kernel on the roofline's intensity axis.
func (a *CSR) Bytes() float64 {
	return 12*float64(a.NNZ()) + 8*float64(len(a.RowPtr)) + 16*float64(a.N)
}

// Intensity returns the kernel's operational intensity I = W/Q.
func (a *CSR) Intensity() units.Intensity {
	return units.Intensity(a.Flops() / a.Bytes())
}

// MulChunked computes y = A*x on the pool, splitting the rows into
// chunkRows-row tasks distributed over the workers. The chunk size is the
// kernel's tuning knob: small chunks interleave finely (good balance, more
// scheduling passes), large chunks stream longer row runs (better locality,
// coarser balance) — the autotuner picks, exactly as it picks DGEMM's
// dimensions. A closed pool panics, like stream.RunPool: a measurement
// site must fail loudly, not record work that never happened.
func MulChunked(y []float64, a *CSR, x []float64, chunkRows int, pool *parallel.Pool) {
	checkShapes(y, a, x)
	if chunkRows < 1 {
		chunkRows = 1
	}
	chunks := (a.N + chunkRows - 1) / chunkRows
	ran := pool.Run(chunks, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			r0 := c * chunkRows
			r1 := min(r0+chunkRows, a.N)
			mulRows(y, a, x, r0, r1)
		}
	})
	if !ran {
		panic("spmv: MulChunked on a closed pool")
	}
}

// mulRows computes the row range [r0, r1) of y = A*x.
func mulRows(y []float64, a *CSR, x []float64, r0, r1 int) {
	for i := r0; i < r1; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		var sum float64
		cols, vals := a.Col[lo:hi], a.Val[lo:hi]
		for p, c := range cols {
			sum += vals[p] * x[c]
		}
		y[i] = sum
	}
}

func checkShapes(y []float64, a *CSR, x []float64) {
	if len(y) != a.N || len(x) != a.N {
		panic(fmt.Sprintf("spmv: shape mismatch: A %dx%d, x %d, y %d", a.N, a.N, len(x), len(y)))
	}
}
