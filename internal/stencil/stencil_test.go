package stencil

import (
	"math"
	"testing"

	"rooftune/internal/parallel"
	"rooftune/internal/units"
)

// Jacobi5 performs one serial 5-point Jacobi sweep: every interior cell of
// dst becomes the average of its four src neighbours; boundary cells copy
// through unchanged. It is the reference the tiled kernel is tested
// against. Panics on shape mismatch or aliased grids.
func Jacobi5(dst, src *Grid) {
	checkShapes(dst, src)
	copyBoundary(dst, src)
	sweepRows(dst, src, 1, src.NY-1, 1, src.NX-1)
}

// At returns the value at (x, y).
func (g *Grid) At(x, y int) float64 { return g.Data[y*g.NX+x] }

func TestNewGridBoundary(t *testing.T) {
	g := NewGrid(8, 5)
	for x := 0; x < 8; x++ {
		if g.At(x, 0) != 1 || g.At(x, 4) != 1 {
			t.Fatalf("horizontal boundary not hot at x=%d", x)
		}
	}
	for y := 0; y < 5; y++ {
		if g.At(0, y) != 1 || g.At(7, y) != 1 {
			t.Fatalf("vertical boundary not hot at y=%d", y)
		}
	}
	if g.At(3, 2) != 0 {
		t.Fatal("interior not cold")
	}
}

func TestJacobi5RelaxesTowardBoundary(t *testing.T) {
	src, dst := NewGrid(16, 16), NewGrid(16, 16)
	// 50 ping-pong sweeps: the interior must monotonically approach the
	// hot boundary value 1 and every value must stay in [0, 1].
	var prev float64
	for it := 0; it < 50; it++ {
		Jacobi5(dst, src)
		src, dst = dst, src
		c := src.At(8, 8)
		if c < prev-1e-15 || c < 0 || c > 1 {
			t.Fatalf("iteration %d: centre %g regressed below %g or left [0,1]", it, c, prev)
		}
		prev = c
	}
	if prev <= 0.1 {
		t.Fatalf("centre %g did not heat up after 50 sweeps", prev)
	}
}

func TestJacobi5TiledMatchesSerial(t *testing.T) {
	src := NewGrid(67, 43) // odd sizes: ragged last tiles on both axes
	for i := range src.Data {
		src.Data[i] = float64(i%13) / 13
	}
	want := NewGrid(67, 43)
	Jacobi5(want, src)

	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, tile := range [][2]int{{1, 1}, {8, 4}, {16, 16}, {128, 128}, {5, 3}} {
		got := NewGrid(67, 43)
		Jacobi5Tiled(got, src, tile[0], tile[1], pool)
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-15 {
				t.Fatalf("tile %v: cell %d = %g, want %g", tile, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestJacobi5TiledClosedPoolPanics(t *testing.T) {
	src, dst := NewGrid(8, 8), NewGrid(8, 8)
	pool := parallel.NewPool(1)
	pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Jacobi5Tiled on a closed pool must panic, not record phantom work")
		}
	}()
	Jacobi5Tiled(dst, src, 4, 4, pool)
}

func TestJacobi5AliasedBuffersPanic(t *testing.T) {
	g := NewGrid(8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("aliased ping-pong buffers must panic")
		}
	}()
	Jacobi5(g, g)
}

func TestIntensityBetweenTriadAndDGEMM(t *testing.T) {
	g := NewGrid(1024, 1024)
	i := g.Intensity()
	if i <= units.TriadIntensity {
		t.Fatalf("stencil intensity %v not above TRIAD's %v", i, units.TriadIntensity)
	}
	if dg := units.DGEMMIntensity(500, 500, 64); i >= dg {
		t.Fatalf("stencil intensity %v not below DGEMM's %v", i, dg)
	}
}

func BenchmarkJacobi5Tiled(b *testing.B) {
	src, dst := NewGrid(1024, 1024), NewGrid(1024, 1024)
	pool := parallel.NewPool(parallel.DefaultThreads())
	defer pool.Close()
	b.SetBytes(int64(src.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jacobi5Tiled(dst, src, 256, 32, pool)
		src, dst = dst, src
	}
}

func BenchmarkJacobi5Serial(b *testing.B) {
	src, dst := NewGrid(1024, 1024), NewGrid(1024, 1024)
	b.SetBytes(int64(src.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jacobi5(dst, src)
		src, dst = dst, src
	}
}
