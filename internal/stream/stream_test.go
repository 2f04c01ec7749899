package stream

import (
	"fmt"
	"testing"

	"rooftune/internal/parallel"
)

// TriadCheck verifies the TRIAD invariant after `iters` passes starting
// from the NewVectors initial state, returning an error on corruption.
// With a(0)=1, b=2, c=0: after the first pass a = b + 3c = 2 and c never
// changes, so a == 2 for every subsequent pass.
func TriadCheck(v *Vectors, iters int) error {
	if iters < 1 {
		return nil
	}
	want := 2.0
	for i, av := range v.A {
		if av != want {
			return fmt.Errorf("stream: triad check failed at [%d]: got %g want %g", i, av, want)
		}
	}
	return nil
}

// runPool runs the kernels in order on a fresh pool of the given size.
func runPool(v *Vectors, workers int, ks ...Kernel) {
	pool := parallel.NewPool(workers)
	defer pool.Close()
	for _, k := range ks {
		v.RunPool(k, pool)
	}
}

func TestKernelMetadata(t *testing.T) {
	for k, name := range map[Kernel]string{Copy: "Copy", Scale: "Scale", Add: "Add", Triad: "Triad"} {
		if k.String() != name {
			t.Errorf("kernel name %v", k)
		}
	}
}

func TestTriadSemantics(t *testing.T) {
	v := NewVectors(1000)
	runPool(v, 4, Triad)
	// a = b + gamma*c = 2 + 3*0 = 2 everywhere.
	if err := TriadCheck(v, 1); err != nil {
		t.Fatal(err)
	}
	runPool(v, 4, Triad)
	if err := TriadCheck(v, 2); err != nil {
		t.Fatal(err)
	}
}

func TestAllKernelsSemantics(t *testing.T) {
	v := NewVectors(257) // odd size exercises remainder partitioning
	runPool(v, 3, Copy)  // c = a = 1
	for i, x := range v.C {
		if x != 1 {
			t.Fatalf("Copy: c[%d] = %v", i, x)
		}
	}
	runPool(v, 3, Scale) // b = 3*c = 3
	for i, x := range v.B {
		if x != 3 {
			t.Fatalf("Scale: b[%d] = %v", i, x)
		}
	}
	runPool(v, 3, Add) // c = a + b = 4
	for i, x := range v.C {
		if x != 4 {
			t.Fatalf("Add: c[%d] = %v", i, x)
		}
	}
	runPool(v, 3, Triad) // a = b + 3c = 15
	for i, x := range v.A {
		if x != 15 {
			t.Fatalf("Triad: a[%d] = %v", i, x)
		}
	}
}

func TestSerialParallelEquivalence(t *testing.T) {
	v1 := NewVectors(10007)
	v8 := NewVectors(10007)
	all := []Kernel{Copy, Scale, Add, Triad}
	runPool(v1, 1, all...)
	runPool(v8, 8, all...)
	for i := range v1.A {
		if v1.A[i] != v8.A[i] || v1.B[i] != v8.B[i] || v1.C[i] != v8.C[i] {
			t.Fatalf("parallel result differs at %d", i)
		}
	}
}

func TestTriadCheckDetectsCorruption(t *testing.T) {
	v := NewVectors(100)
	runPool(v, 1, Triad)
	v.A[42] = 0 // corrupt
	if err := TriadCheck(v, 1); err == nil {
		t.Fatal("TriadCheck must detect corruption")
	}
}

func TestUnknownKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kernel must panic")
		}
	}()
	runPool(NewVectors(10), 1, Kernel(42))
}

func TestRunPoolClosedPoolPanics(t *testing.T) {
	pool := parallel.NewPool(2)
	pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("RunPool on a closed pool must panic, not skip or re-time the work")
		}
	}()
	NewVectors(100).RunPool(Triad, pool)
}
