package stream

import (
	"fmt"
	"testing"

	"rooftune/internal/parallel"
	"rooftune/internal/units"
)

// Micro-benchmarks of the native STREAM substrate across working-set
// sizes spanning cache levels, the curve the native TRIAD sweep walks.

func BenchmarkTriadSizes(b *testing.B) {
	for _, kib := range []int{32, 512, 4096, 65536} {
		elems := kib * 1024 / 24
		b.Run(fmt.Sprintf("%dKiB", kib), func(b *testing.B) {
			v := NewVectors(elems)
			pool := parallel.NewPool(parallel.DefaultThreads())
			defer pool.Close()
			v.RunPool(Triad, pool) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.RunPool(Triad, pool)
			}
			b.ReportMetric(units.TriadBytes(elems)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

func BenchmarkAllKernels(b *testing.B) {
	const elems = 1 << 20
	v := NewVectors(elems)
	pool := parallel.NewPool(parallel.DefaultThreads())
	defer pool.Close()
	// Bytes moved per element: Copy and Scale touch two arrays, Add and
	// Triad three.
	perElem := map[Kernel]float64{Copy: 16, Scale: 16, Add: 24, Triad: 24}
	for _, k := range []Kernel{Copy, Scale, Add, Triad} {
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.RunPool(k, pool)
			}
			bytes := perElem[k] * elems
			b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}
