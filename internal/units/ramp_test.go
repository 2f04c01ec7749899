package units

import (
	"math"
	"sync"
	"testing"
)

func TestWarmupRampEndsAtOne(t *testing.T) {
	r := WarmupRamp(0.28, 5)
	n := len(r.table)
	if n == 0 || n > 1000 {
		t.Fatalf("table length %d", n)
	}
	if tail := 0.28 * math.Exp(-float64(n)/5); tail < rampTail {
		t.Fatalf("table stops late: entry %d has tail %g", n-1, tail)
	}
	for i := n; i < n+1000; i++ {
		if got := r.At(i); got != 1 {
			t.Fatalf("At(%d) = %v past the table, want 1", i, got)
		}
		if direct := 1 - 0.28*math.Exp(-float64(i+1)/5); direct != 1 {
			t.Fatalf("formula at %d = %v, not exactly 1", i, direct)
		}
	}
	if WarmupRamp(0, 3).At(0) != 1 {
		t.Fatal("zero-depth ramp must be flat")
	}
}

// TestWarmupRampMemoised looks one (depth, tau) pair up from several
// goroutines at once, as concurrent sweeps do: every caller must get the
// one stored table.
func TestWarmupRampMemoised(t *testing.T) {
	const workers = 8
	got := make([]Ramp, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = WarmupRamp(0.07, 2.5)
		}()
	}
	wg.Wait()
	for _, r := range got {
		if len(r.table) == 0 || &r.table[0] != &got[0].table[0] {
			t.Fatal("equal (depth, tau) must share one table")
		}
	}
}

func TestWarmupRampRejectsEndlessTransient(t *testing.T) {
	for _, c := range [][2]float64{{0.1, 0}, {0.1, -1}, {0.1, math.Inf(1)}, {math.NaN(), 2}, {0.1, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WarmupRamp(%g, %g) did not panic", c[0], c[1])
				}
			}()
			WarmupRamp(c[0], c[1])
		}()
	}
}
