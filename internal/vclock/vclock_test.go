package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	if v.Now() != 0 {
		t.Fatal("virtual clock must start at zero")
	}
	v.Advance(5 * time.Second)
	v.Advance(250 * time.Millisecond)
	if got := v.Now(); got != 5250*time.Millisecond {
		t.Fatalf("Now = %v", got)
	}
}

func TestVirtualNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance must panic")
		}
	}()
	NewVirtual().Advance(-time.Second)
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				v.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := v.Now(); got != workers*each*time.Microsecond {
		t.Fatalf("concurrent advance lost time: %v", got)
	}
}

func TestRealClockMonotone(t *testing.T) {
	r := NewReal()
	a := r.Now()
	time.Sleep(2 * time.Millisecond)
	b := r.Now()
	if b <= a {
		t.Fatalf("real clock not advancing: %v -> %v", a, b)
	}
	r.Advance(time.Hour) // must be a no-op
	if r.Now() > b+time.Second {
		t.Fatal("Advance on real clock must not jump time")
	}
}

func TestStopwatch(t *testing.T) {
	v := NewVirtual()
	sw := NewStopwatch(v)
	v.Advance(3 * time.Second)
	if got := sw.Elapsed(); got != 3*time.Second {
		t.Fatalf("Elapsed = %v", got)
	}
	v.Advance(time.Second)
	if got := sw.Elapsed(); got != 4*time.Second {
		t.Fatalf("Elapsed = %v", got)
	}
}

func TestQuantizeMicro(t *testing.T) {
	if got := QuantizeMicro(1234567 * time.Nanosecond); got != 1234*time.Microsecond {
		t.Fatalf("QuantizeMicro = %v", got)
	}
	if got := QuantizeMicro(999 * time.Nanosecond); got != 0 {
		t.Fatalf("sub-microsecond must truncate to 0, got %v", got)
	}
}

// TestVirtualSize pins the padding: a clock that shrinks below two cache
// lines lets concurrently advanced clocks false-share again.
func TestVirtualSize(t *testing.T) {
	if got := unsafe.Sizeof(Virtual{}); got != virtualSize {
		t.Fatalf("sizeof(Virtual) = %d, want %d", got, virtualSize)
	}
}

// BenchmarkVirtualAdvanceAdjacent advances two clocks allocated back to
// back from parallel goroutines, as concurrent sweeps do: with the clocks
// sharing a cache line, every Advance stalls on the other core's writes.
func BenchmarkVirtualAdvanceAdjacent(b *testing.B) {
	clocks := [2]*Virtual{NewVirtual(), NewVirtual()}
	var next atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		c := clocks[next.Add(1)%2]
		for pb.Next() {
			c.Advance(time.Nanosecond)
		}
	})
}
