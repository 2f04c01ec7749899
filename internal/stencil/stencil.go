// Package stencil is the native structured-grid substrate: a 2D 5-point
// Jacobi sweep (the heat-equation relaxation kernel) parallelised over
// tile-row bands, tuned by tile dimensions. Four FLOPs against sixteen
// bytes of stream traffic put its arithmetic intensity a factor of three
// above TRIAD's yet far below DGEMM's — the second of the two §VII
// roofline gaps this repository closes.
package stencil

import (
	"fmt"

	"rooftune/internal/parallel"
	"rooftune/internal/units"
)

// Grid is a dense NX x NY grid of doubles, row-major with NX columns per
// row (x is the contiguous axis).
type Grid struct {
	NX, NY int
	Data   []float64
}

// NewGrid allocates an nx x ny grid initialised to a deterministic
// pattern: a hot boundary (1.0) around a cold interior (0.0), the classic
// Dirichlet setup whose relaxation Jacobi5Tiled performs.
func NewGrid(nx, ny int) *Grid {
	if nx < 3 || ny < 3 {
		panic(fmt.Sprintf("stencil: grid %dx%d too small for a 5-point stencil", nx, ny))
	}
	g := &Grid{NX: nx, NY: ny, Data: make([]float64, nx*ny)}
	for x := 0; x < nx; x++ {
		g.Data[x] = 1           // y = 0 edge
		g.Data[(ny-1)*nx+x] = 1 // y = ny-1 edge
	}
	for y := 0; y < ny; y++ {
		g.Data[y*nx] = 1      // x = 0 edge
		g.Data[y*nx+nx-1] = 1 // x = nx-1 edge
	}
	return g
}

// Points returns the number of interior points one sweep updates.
func (g *Grid) Points() float64 { return float64(g.NX-2) * float64(g.NY-2) }

// Flops returns the floating-point work of one Jacobi sweep: three adds
// and one multiply per interior point.
func (g *Grid) Flops() float64 { return 4 * g.Points() }

// Bytes returns the minimum memory traffic of one sweep in bytes: each
// source cell read once (the cache-reuse lower bound — the three-row
// window makes neighbour loads hits) and each destination cell written
// once. Like spmv.CSR.Bytes, the lower bound is what fixes the kernel's
// position on the roofline's intensity axis.
func (g *Grid) Bytes() float64 { return 16 * float64(g.NX) * float64(g.NY) }

// Intensity returns the kernel's operational intensity I = W/Q: 0.25
// FLOP/B in the large-grid limit, three times TRIAD's 1/12.
func (g *Grid) Intensity() units.Intensity {
	return units.Intensity(g.Flops() / g.Bytes())
}

// Jacobi5Tiled performs one Jacobi sweep traversing the interior in
// tileX x tileY tiles, parallelised over bands of tile rows on the pool.
// The tile shape is the kernel's tuning knob: tileX bounds the contiguous
// run streamed per row (cache-line reuse of the three-row window), tileY
// the band height each task owns (balance versus loop overhead) — the
// autotuner picks, as it picks SpMV's chunk. Every task owns disjoint
// dst rows, so no synchronisation on output is needed. A closed pool
// panics, like stream.RunPool: a measurement site must fail loudly.
func Jacobi5Tiled(dst, src *Grid, tileX, tileY int, pool *parallel.Pool) {
	checkShapes(dst, src)
	if tileX < 1 {
		tileX = 1
	}
	if tileY < 1 {
		tileY = 1
	}
	copyBoundary(dst, src)
	nx, ny := src.NX, src.NY
	bands := (ny - 2 + tileY - 1) / tileY
	ran := pool.Run(bands, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			y0 := 1 + b*tileY
			y1 := min(y0+tileY, ny-1)
			for x0 := 1; x0 < nx-1; x0 += tileX {
				x1 := min(x0+tileX, nx-1)
				sweepRows(dst, src, y0, y1, x0, x1)
			}
		}
	})
	if !ran {
		panic("stencil: Jacobi5Tiled on a closed pool")
	}
}

// sweepRows updates dst over the interior rectangle [x0,x1) x [y0,y1).
func sweepRows(dst, src *Grid, y0, y1, x0, x1 int) {
	nx := src.NX
	for y := y0; y < y1; y++ {
		up := src.Data[(y-1)*nx:]
		mid := src.Data[y*nx:]
		down := src.Data[(y+1)*nx:]
		out := dst.Data[y*nx:]
		for x := x0; x < x1; x++ {
			out[x] = 0.25 * (up[x] + down[x] + mid[x-1] + mid[x+1])
		}
	}
}

// copyBoundary carries src's Dirichlet boundary into dst so ping-pong
// buffers stay consistent.
func copyBoundary(dst, src *Grid) {
	nx, ny := src.NX, src.NY
	copy(dst.Data[:nx], src.Data[:nx])
	copy(dst.Data[(ny-1)*nx:], src.Data[(ny-1)*nx:])
	for y := 1; y < ny-1; y++ {
		dst.Data[y*nx] = src.Data[y*nx]
		dst.Data[y*nx+nx-1] = src.Data[y*nx+nx-1]
	}
}

func checkShapes(dst, src *Grid) {
	if dst.NX != src.NX || dst.NY != src.NY {
		panic(fmt.Sprintf("stencil: shape mismatch: dst %dx%d, src %dx%d", dst.NX, dst.NY, src.NX, src.NY))
	}
	if &dst.Data[0] == &src.Data[0] {
		panic("stencil: Jacobi5 requires distinct ping-pong buffers")
	}
}
