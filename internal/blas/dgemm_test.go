package blas

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rooftune/internal/parallel"
	"rooftune/internal/xrand"
)

// newTestPool returns a pool of the given size that is closed when the
// test ends.
func newTestPool(t testing.TB, workers int) *parallel.Pool {
	pool := parallel.NewPool(workers)
	t.Cleanup(pool.Close)
	return pool
}

// DGEMMNaive is the triple-loop reference implementation, the oracle the
// tests check the blocked kernel against. It is deliberately simple
// and single-threaded.
func DGEMMNaive(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	checkShapes(a, b, c)
	n, m, k := a.Rows, b.Cols, a.Cols
	for i := 0; i < n; i++ {
		crow := c.Data[i*c.Stride : i*c.Stride+m]
		if beta == 0 {
			for j := range crow {
				crow[j] = 0
			}
		} else if beta != 1 {
			for j := range crow {
				crow[j] *= beta
			}
		}
		arow := a.Data[i*a.Stride : i*a.Stride+k]
		for p := 0; p < k; p++ {
			s := alpha * arow[p]
			if s == 0 {
				continue
			}
			brow := b.Data[p*b.Stride : p*b.Stride+m]
			for j, bv := range brow {
				crow[j] += s * bv
			}
		}
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// two equally-shaped matrices; it panics on shape mismatch.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("blas: MaxAbsDiff shape mismatch %dx%d vs %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var worst float64
	for i := 0; i < a.Rows; i++ {
		ra := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		rb := b.Data[i*b.Stride : i*b.Stride+b.Cols]
		for j := range ra {
			d := ra[j] - rb[j]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// fill sets every element of a Stride == Cols matrix to v.
func fill(m *Matrix, v float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

func clone(m *Matrix) *Matrix {
	c := *m
	c.Data = append([]float64(nil), m.Data...)
	return &c
}

// randomMatrix pads each row with extraStride unused elements, so the
// kernels see a leading dimension larger than the column count.
func randomMatrix(rng *xrand.Rand, rows, cols, extraStride int) *Matrix {
	stride := cols + extraStride
	m := &Matrix{Rows: rows, Cols: cols, Stride: stride, Data: make([]float64, rows*stride)}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Data[i*stride+j] = rng.Normal()
		}
	}
	return m
}

func TestDGEMMKnownProduct(t *testing.T) {
	// [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float64{5, 6, 7, 8})
	c := NewMatrix(2, 2)
	DGEMM(1, a, b, 0, c, newTestPool(t, 1))
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestDGEMMMatchesNaive(t *testing.T) {
	// The blocked, packed, parallel kernel must agree with the
	// triple-loop oracle for arbitrary shapes, strides and scalars.
	rng := xrand.New(1)
	pool := newTestPool(t, 3)
	f := func(nRaw, mRaw, kRaw uint8, alphaRaw, betaRaw int8, strideA, strideB uint8) bool {
		n := int(nRaw%70) + 1
		m := int(mRaw%70) + 1
		k := int(kRaw%70) + 1
		alpha := float64(alphaRaw) / 16
		beta := float64(betaRaw) / 16
		a := randomMatrix(rng, n, k, int(strideA%5))
		b := randomMatrix(rng, k, m, int(strideB%5))
		c0 := randomMatrix(rng, n, m, 0)
		c1 := clone(c0)
		DGEMMNaive(alpha, a, b, beta, c0)
		DGEMM(alpha, a, b, beta, c1, pool)
		return MaxAbsDiff(c0, c1) < 1e-10*float64(k+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDGEMMLargerThanBlocks(t *testing.T) {
	// Dimensions exceeding the kernel's internal block sizes exercise
	// the full panel loop structure.
	rng := xrand.New(2)
	n, m, k := 200, 600, 300
	a := randomMatrix(rng, n, k, 0)
	b := randomMatrix(rng, k, m, 0)
	c0 := NewMatrix(n, m)
	c1 := NewMatrix(n, m)
	DGEMMNaive(1, a, b, 0, c0)
	DGEMM(1, a, b, 0, c1, newTestPool(t, 4))
	if d := MaxAbsDiff(c0, c1); d > 1e-9 {
		t.Fatalf("blocked kernel diverges from oracle: max diff %v", d)
	}
}

func TestDGEMMBetaSemantics(t *testing.T) {
	rng := xrand.New(3)
	a := randomMatrix(rng, 8, 8, 0)
	b := randomMatrix(rng, 8, 8, 0)
	pool := newTestPool(t, 2)

	// beta=0 must overwrite even NaN-poisoned C (BLAS convention).
	c := NewMatrix(8, 8)
	for i := range c.Data {
		c.Data[i] = math.NaN()
	}
	DGEMM(1, a, b, 0, c, pool)
	for i, v := range c.Data {
		if math.IsNaN(v) {
			t.Fatalf("beta=0 must clear NaN at %d", i)
		}
	}

	// beta=1 accumulates.
	c1 := fill(NewMatrix(8, 8), 2)
	c2 := clone(c1)
	DGEMM(1, a, b, 1, c1, pool)
	DGEMMNaive(1, a, b, 1, c2)
	if d := MaxAbsDiff(c1, c2); d > 1e-12 {
		t.Fatalf("beta=1 mismatch: %v", d)
	}
}

func TestDGEMMAlphaZeroScalesOnly(t *testing.T) {
	a := fill(NewMatrix(4, 4), math.Inf(1)) // must never be touched when alpha == 0
	b := fill(NewMatrix(4, 4), 1)
	c := fill(NewMatrix(4, 4), 3)
	DGEMM(0, a, b, 0.5, c, newTestPool(t, 1))
	for i, v := range c.Data {
		if v != 1.5 {
			t.Fatalf("c[%d] = %v, want 1.5", i, v)
		}
	}
}

func TestDGEMMShapePanic(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 2) // k mismatch
	c := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch must panic")
		}
	}()
	DGEMM(1, a, b, 0, c, newTestPool(t, 1))
}

// TestDGEMMThreadCountIrrelevantToResult: the pool's worker count only
// decides which worker computes which row panels, never a value, so
// every pool size yields bit-identical C. The matrix spans five row
// panels, so each pool above one worker really splits the work.
func TestDGEMMThreadCountIrrelevantToResult(t *testing.T) {
	rng := xrand.New(4)
	a := randomMatrix(rng, 520, 65, 0)
	b := randomMatrix(rng, 65, 47, 0)
	ref := NewMatrix(520, 47)
	DGEMM(1, a, b, 0, ref, newTestPool(t, 1))
	for _, workers := range []int{2, 5, 16} {
		c := NewMatrix(520, 47)
		DGEMM(1, a, b, 0, c, newTestPool(t, workers))
		if d := MaxAbsDiff(ref, c); d != 0 {
			t.Fatalf("a %d-worker pool changed the result by %v", workers, d)
		}
	}
}

func TestDGEMMClosedPoolPanics(t *testing.T) {
	pool := parallel.NewPool(2)
	pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("DGEMM on a closed pool must panic, not skip or re-time the work")
		}
	}()
	DGEMM(1, NewMatrix(4, 4), NewMatrix(4, 4), 0, NewMatrix(4, 4), pool)
}

func TestMaxAbsDiffShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch must panic")
		}
	}()
	MaxAbsDiff(NewMatrix(2, 2), NewMatrix(2, 3))
}

func TestZeroDimensionNoPanic(t *testing.T) {
	a := NewMatrix(0, 5)
	b := NewMatrix(5, 0)
	c := NewMatrix(0, 0)
	DGEMM(1, a, b, 0, c, newTestPool(t, 2)) // must not panic
}
