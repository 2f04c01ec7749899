package blas

import (
	"fmt"

	"rooftune/internal/parallel"
)

// DGEMM computes C <- alpha*A*B + beta*C (Eq. 3 of the paper) with A of
// shape n x k, B of k x m and C of n x m, using a cache-blocked
// algorithm whose row panels run on the pool's workers, so a timed call
// starts no goroutines. It panics on shape mismatch, mirroring the
// contract of cblas_dgemm with invalid arguments, and on a closed pool,
// like stream.RunPool: a measurement site must fail loudly rather than
// time work that did not happen.
func DGEMM(alpha float64, a, b *Matrix, beta float64, c *Matrix, pool *parallel.Pool) {
	checkShapes(a, b, c)
	n, m, k := a.Rows, b.Cols, a.Cols

	scaleC(beta, c)
	if alpha == 0 || n == 0 || m == 0 || k == 0 {
		return
	}

	// Block sizes chosen so one A-panel (mcxkc) plus one B-panel (kcxnc)
	// sit comfortably in L2, with the micro-kernel streaming C through
	// registers. These are generic values; the whole point of the paper is
	// that the *problem* dimensions get autotuned on top of them.
	const (
		mc = 128 // rows of A per panel
		kc = 256 // depth per panel
		nc = 512 // columns of B per panel
	)

	// Parallelise over row panels of C: each worker owns disjoint C rows,
	// so no synchronisation on output is needed.
	rowPanels := (n + mc - 1) / mc
	ran := pool.Run(rowPanels, func(lo, hi int) {
		// Per-worker packed buffers, reused across panels.
		packedA := make([]float64, mc*kc)
		packedB := make([]float64, kc*nc)
		for pi := lo; pi < hi; pi++ {
			i0 := pi * mc
			ib := min(mc, n-i0)
			for p0 := 0; p0 < k; p0 += kc {
				pb := min(kc, k-p0)
				packA(packedA, a, i0, p0, ib, pb)
				for j0 := 0; j0 < m; j0 += nc {
					jb := min(nc, m-j0)
					packB(packedB, b, p0, j0, pb, jb)
					macroKernel(alpha, packedA, packedB, c, i0, j0, ib, jb, pb)
				}
			}
		}
	})
	if !ran {
		panic("blas: DGEMM on a closed pool")
	}
}

func checkShapes(a, b, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("blas: DGEMM shape mismatch: A %dx%d, B %dx%d, C %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}

func scaleC(beta float64, c *Matrix) {
	if beta == 1 {
		return
	}
	for i := 0; i < c.Rows; i++ {
		row := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		for j := range row {
			row[j] *= beta
		}
	}
}

// packA copies the ib x pb block of A at (i0, p0) into buf in row-major
// order with contiguous rows, so the micro-kernel reads it with unit
// stride.
func packA(buf []float64, a *Matrix, i0, p0, ib, pb int) {
	for i := 0; i < ib; i++ {
		src := a.Data[(i0+i)*a.Stride+p0 : (i0+i)*a.Stride+p0+pb]
		copy(buf[i*pb:(i+1)*pb], src)
	}
}

// packB copies the pb x jb block of B at (p0, j0) into buf row-major.
func packB(buf []float64, b *Matrix, p0, j0, pb, jb int) {
	for p := 0; p < pb; p++ {
		src := b.Data[(p0+p)*b.Stride+j0 : (p0+p)*b.Stride+j0+jb]
		copy(buf[p*jb:(p+1)*jb], src)
	}
}

// macroKernel multiplies the packed ib x pb A-panel by the packed pb x jb
// B-panel and accumulates alpha times the product into C at (i0, j0).
// The inner loops are structured as a 4-row outer-product update so the
// compiler keeps the four accumulator rows' bases in registers and the
// B row access is a single streaming read.
func macroKernel(alpha float64, pa, pb []float64, c *Matrix, i0, j0, ib, jb, kb int) {
	i := 0
	for ; i+4 <= ib; i += 4 {
		r0 := c.Data[(i0+i+0)*c.Stride+j0 : (i0+i+0)*c.Stride+j0+jb]
		r1 := c.Data[(i0+i+1)*c.Stride+j0 : (i0+i+1)*c.Stride+j0+jb]
		r2 := c.Data[(i0+i+2)*c.Stride+j0 : (i0+i+2)*c.Stride+j0+jb]
		r3 := c.Data[(i0+i+3)*c.Stride+j0 : (i0+i+3)*c.Stride+j0+jb]
		a0 := pa[(i+0)*kb : (i+1)*kb]
		a1 := pa[(i+1)*kb : (i+2)*kb]
		a2 := pa[(i+2)*kb : (i+3)*kb]
		a3 := pa[(i+3)*kb : (i+4)*kb]
		for p := 0; p < kb; p++ {
			brow := pb[p*jb : (p+1)*jb]
			s0 := alpha * a0[p]
			s1 := alpha * a1[p]
			s2 := alpha * a2[p]
			s3 := alpha * a3[p]
			for j, bv := range brow {
				r0[j] += s0 * bv
				r1[j] += s1 * bv
				r2[j] += s2 * bv
				r3[j] += s3 * bv
			}
		}
	}
	for ; i < ib; i++ {
		row := c.Data[(i0+i)*c.Stride+j0 : (i0+i)*c.Stride+j0+jb]
		arow := pa[i*kb : (i+1)*kb]
		for p := 0; p < kb; p++ {
			s := alpha * arow[p]
			if s == 0 {
				continue
			}
			brow := pb[p*jb : (p+1)*jb]
			for j, bv := range brow {
				row[j] += s * bv
			}
		}
	}
}
