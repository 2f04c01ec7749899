package spmv

import (
	"math"
	"reflect"
	"testing"

	"rooftune/internal/parallel"
	"rooftune/internal/units"
)

// Mul computes y = A*x serially — the reference the parallel kernel is
// tested against. It panics on shape mismatch, mirroring blas.DGEMM.
func Mul(y []float64, a *CSR, x []float64) {
	checkShapes(y, a, x)
	mulRows(y, a, x, 0, a.N)
}

func TestSyntheticShape(t *testing.T) {
	a := Synthetic(100, 8, 1021)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 100*8 {
		t.Fatalf("nnz = %d, want %d", a.NNZ(), 100*8)
	}
	for i := 0; i < a.N; i++ {
		if n := a.RowPtr[i+1] - a.RowPtr[i]; n != 8 {
			t.Fatalf("row %d has %d nonzeros, want 8", i, n)
		}
		diag := false
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if p > a.RowPtr[i] && a.Col[p] <= a.Col[p-1] {
				t.Fatalf("row %d columns not strictly ascending", i)
			}
			if int(a.Col[p]) == i {
				diag = true
			}
		}
		if !diag {
			t.Fatalf("row %d missing its diagonal", i)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(256, 12, 7)
	b := Synthetic(256, 12, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal (n, nnzPerRow, seed) must build identical matrices")
	}
	c := Synthetic(256, 12, 8)
	if reflect.DeepEqual(a.Col, c.Col) && reflect.DeepEqual(a.Val, c.Val) {
		t.Fatal("different seeds built identical matrices")
	}
}

func TestSyntheticClampsDensity(t *testing.T) {
	a := Synthetic(4, 100, 1) // nnzPerRow > n must clamp to a full row
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 16 {
		t.Fatalf("nnz = %d, want dense 16", a.NNZ())
	}
}

func TestMulChunkedMatchesSerial(t *testing.T) {
	a := Synthetic(513, 9, 1021) // odd size: exercises ragged last chunk
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i%17) - 8
	}
	want := make([]float64, a.N)
	Mul(want, a, x)

	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, chunk := range []int{1, 7, 64, 513, 4096} {
		got := make([]float64, a.N)
		MulChunked(got, a, x, chunk, pool)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("chunk %d: y[%d] = %g, want %g", chunk, i, got[i], want[i])
			}
		}
	}
}

func TestMulChunkedClosedPoolPanics(t *testing.T) {
	a := Synthetic(8, 2, 1)
	x := make([]float64, a.N)
	y := make([]float64, a.N)
	pool := parallel.NewPool(1)
	pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("MulChunked on a closed pool must panic, not record phantom work")
		}
	}()
	MulChunked(y, a, x, 4, pool)
}

func TestIntensityBetweenTriadAndDGEMM(t *testing.T) {
	a := Synthetic(4096, 16, 1021)
	i := a.Intensity()
	if i <= units.TriadIntensity {
		t.Fatalf("SpMV intensity %v not above TRIAD's %v", i, units.TriadIntensity)
	}
	// The smallest DGEMM intensity in any built-in space (n=m=500, k=64)
	// still dwarfs a sparse kernel's.
	if dg := units.DGEMMIntensity(500, 500, 64); i >= dg {
		t.Fatalf("SpMV intensity %v not below DGEMM's %v", i, dg)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := Synthetic(16, 4, 1)
	a.Col[3] = 99
	if err := a.Validate(); err == nil {
		t.Fatal("out-of-range column must fail validation")
	}
}

func BenchmarkMulChunked(b *testing.B) {
	a := Synthetic(1<<15, 16, 1021)
	x := make([]float64, a.N)
	y := make([]float64, a.N)
	for i := range x {
		x[i] = 1
	}
	pool := parallel.NewPool(parallel.DefaultThreads())
	defer pool.Close()
	b.SetBytes(int64(a.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulChunked(y, a, x, 256, pool)
	}
}

func BenchmarkMulSerial(b *testing.B) {
	a := Synthetic(1<<15, 16, 1021)
	x := make([]float64, a.N)
	y := make([]float64, a.N)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(a.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(y, a, x)
	}
}
