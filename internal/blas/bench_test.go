package blas

import (
	"fmt"
	"testing"

	"rooftune/internal/parallel"
	"rooftune/internal/units"
)

// Micro-benchmarks of the native DGEMM substrate: the blocked kernel
// against the naive oracle across sizes, and the threading scaling the
// native engine relies on.

func benchDGEMM(b *testing.B, n, threads int) {
	pool := newTestPool(b, threads)
	a := NewMatrix(n, n)
	bb := NewMatrix(n, n)
	c := NewMatrix(n, n)
	a.FillPattern(1)
	bb.FillPattern(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DGEMM(1, a, bb, 0, c, pool)
	}
	b.ReportMetric(units.DGEMMFlops(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkDGEMMBlocked(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("n%d-serial", n), func(b *testing.B) { benchDGEMM(b, n, 1) })
		b.Run(fmt.Sprintf("n%d-parallel", n), func(b *testing.B) { benchDGEMM(b, n, parallel.DefaultThreads()) })
	}
}

func BenchmarkDGEMMNaive(b *testing.B) {
	const n = 256
	a := NewMatrix(n, n)
	bb := NewMatrix(n, n)
	c := NewMatrix(n, n)
	a.FillPattern(1)
	bb.FillPattern(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DGEMMNaive(1, a, bb, 0, c)
	}
	b.ReportMetric(units.DGEMMFlops(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// Rectangular shapes of the paper's optimal configurations (scaled down
// 4x to stay benchmark-friendly).
func BenchmarkDGEMMPaperShapes(b *testing.B) {
	shapes := []struct{ n, m, k int }{
		{250, 1024, 32}, // 1000,4096,128 / 4
		{500, 512, 16},  // 2000,2048,64 / 4
		{1000, 128, 32}, // 4000,512,128 / 4
	}
	pool := newTestPool(b, parallel.DefaultThreads())
	for _, s := range shapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.n, s.m, s.k), func(b *testing.B) {
			a := NewMatrix(s.n, s.k)
			bb := NewMatrix(s.k, s.m)
			c := NewMatrix(s.n, s.m)
			a.FillPattern(1)
			bb.FillPattern(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DGEMM(1, a, bb, 0, c, pool)
			}
			b.ReportMetric(units.DGEMMFlops(s.n, s.m, s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
