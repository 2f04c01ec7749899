package core

import (
	"testing"
)

func TestInitialSpaceCardinality(t *testing.T) {
	// Eq. 8: |S| = 7 * 7 * 11 = 539.
	s := InitialDGEMMSpace()
	if len(s) != 539 {
		t.Fatalf("initial space |S| = %d, want 539 (Eq. 8)", len(s))
	}
	for _, d := range s {
		if d.N < 64 || d.N > 4096 || d.M < 64 || d.M > 4096 || d.K < 2 || d.K > 2048 {
			t.Fatalf("initial space out of range: %v", d)
		}
	}
}

func TestReducedSpaceCardinality(t *testing.T) {
	// §IV-A: 4 * 4 * 6 = 96 after narrowing.
	s := ReducedDGEMMSpace()
	if len(s) != 96 {
		t.Fatalf("reduced space |S| = %d, want 96", len(s))
	}
	for _, d := range s {
		if d.N < 512 || d.M < 512 || d.K < 64 {
			t.Fatalf("reduced space must exclude low values: %v", d)
		}
	}
}

func TestUnionSpaceCardinalityAndContents(t *testing.T) {
	s := UnionDGEMMSpace()
	if len(s) != 8*8*6 {
		t.Fatalf("union space |S| = %d, want 384", len(s))
	}
	// The union space must contain every Table V optimum.
	tableV := []Dims{
		{1000, 4096, 128}, {2000, 2048, 64},
		{2000, 4096, 128}, {4000, 2048, 128},
		{4000, 512, 128}, {4000, 1024, 128},
	}
	index := map[Dims]bool{}
	for _, d := range s {
		if index[d] {
			t.Fatalf("duplicate configuration %v", d)
		}
		index[d] = true
	}
	for _, d := range tableV {
		if !index[d] {
			t.Fatalf("union space missing Table V optimum %v", d)
		}
	}
}

func TestSquareAndConstrainedSpaces(t *testing.T) {
	sq := SquareDGEMMSpace()
	if len(sq) != 8 {
		t.Fatalf("square space |S| = %d", len(sq))
	}
	for _, d := range sq {
		if d.N != d.M || d.M != d.K {
			t.Fatalf("square space has non-square %v", d)
		}
	}
	mn := ConstrainedMNSpace()
	if len(mn) != 8*6 {
		t.Fatalf("m=n space |S| = %d", len(mn))
	}
	for _, d := range mn {
		if d.N != d.M {
			t.Fatalf("m=n constraint violated: %v", d)
		}
	}
}

func TestDimsString(t *testing.T) {
	d := Dims{N: 1000, M: 4096, K: 128}
	if d.String() != "1000,4096,128" {
		t.Fatalf("Dims.String() = %q (Table V format)", d.String())
	}
	if d.Flops() != 2*1000*4096*128 {
		t.Fatalf("Flops = %v", d.Flops())
	}
}
