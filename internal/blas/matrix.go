// Package blas is the native compute substrate: a pure-Go, cache-blocked,
// goroutine-parallel double-precision GEMM, which its tests check against
// a naive reference implementation. It plays the role the vendor BLAS
// (MKL/OpenBLAS) plays in the paper: the kernel whose performance the
// autotuner measures when rooftune runs against real hardware.
package blas

import "fmt"

// Matrix is a dense row-major matrix of float64. Data holds Rows*Stride
// elements with Stride >= Cols; element (i, j) is Data[i*Stride+j]. The
// explicit stride models the BLAS "leading dimension" parameter whose
// alignment effects (§IV-A: multiples of 2 vs. powers of 2) the paper
// tunes around.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewMatrix allocates a Rows x Cols matrix with Stride == Cols.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("blas: NewMatrix(%d, %d) with negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float64, rows*cols)}
}

// FillPattern initialises the matrix with a cheap deterministic pattern,
// matching the paper's "test matrix initialization" stage. The pattern
// avoids denormals and keeps values O(1) so accumulation error stays small.
func (m *Matrix) FillPattern(seed float64) {
	for i := 0; i < m.Rows; i++ {
		base := seed + float64(i%13)*0.125
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = base + float64(j%7)*0.0625
		}
	}
}
