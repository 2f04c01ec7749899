// Package stream is the native memory substrate: pure-Go implementations
// of the four STREAM kernels (McCalpin), parallelised with a static
// schedule like the paper's OpenMP TRIAD (§III-B). TRIAD is the kernel the
// paper tunes; Copy, Scale and Add are provided for completeness and used
// by the extended L1/L2 sweep.
package stream

import (
	"fmt"

	"rooftune/internal/parallel"
)

// Kernel identifies one of the STREAM operations.
type Kernel int

// The four STREAM kernels.
const (
	Copy  Kernel = iota // c[i] = a[i]
	Scale               // b[i] = gamma*c[i]
	Add                 // c[i] = a[i] + b[i]
	Triad               // a[i] = b[i] + gamma*c[i]
)

// String returns the kernel's STREAM name.
func (k Kernel) String() string {
	switch k {
	case Copy:
		return "Copy"
	case Scale:
		return "Scale"
	case Add:
		return "Add"
	case Triad:
		return "Triad"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Vectors holds the three STREAM arrays. Allocate once per benchmark
// invocation and reuse across iterations, as STREAM does.
type Vectors struct {
	A, B, C []float64
	Gamma   float64
}

// NewVectors allocates three n-element vectors initialised to the STREAM
// convention (a=1, b=2, c=0) with gamma=3.
func NewVectors(n int) *Vectors {
	v := &Vectors{
		A:     make([]float64, n),
		B:     make([]float64, n),
		C:     make([]float64, n),
		Gamma: 3.0,
	}
	for i := range v.A {
		v.A[i] = 1
		v.B[i] = 2
	}
	return v
}

// N returns the vector length.
func (v *Vectors) N() int { return len(v.A) }

// RunPool executes one pass of the kernel over the vectors on a
// persistent worker pool with a static partition, so the measured loop
// pays no goroutine startup. A closed pool panics: silently skipping
// the traversal would record a bandwidth sample over work that never
// happened, and silently re-running it with fresh goroutines would time
// their startup — a measurement site must fail loudly instead.
func (v *Vectors) RunPool(k Kernel, pool *parallel.Pool) {
	n := v.N()
	ran := false
	switch k {
	case Copy:
		ran = pool.Run(n, func(lo, hi int) { copy(v.C[lo:hi], v.A[lo:hi]) })
	case Scale:
		ran = pool.Run(n, func(lo, hi int) {
			g := v.Gamma
			b, c := v.B[lo:hi], v.C[lo:hi]
			for i := range b {
				b[i] = g * c[i]
			}
		})
	case Add:
		ran = pool.Run(n, func(lo, hi int) {
			a, b, c := v.A[lo:hi], v.B[lo:hi], v.C[lo:hi]
			for i := range c {
				c[i] = a[i] + b[i]
			}
		})
	case Triad:
		ran = pool.Run(n, func(lo, hi int) {
			g := v.Gamma
			a, b, c := v.A[lo:hi], v.B[lo:hi], v.C[lo:hi]
			for i := range a {
				a[i] = b[i] + g*c[i]
			}
		})
	default:
		panic(fmt.Sprintf("stream: unknown kernel %v", k))
	}
	if !ran {
		panic("stream: RunPool on a closed pool")
	}
}
