package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestStaticPartitionProperties(t *testing.T) {
	// OpenMP static schedule invariants: blocks cover [0, n) exactly
	// once, in order, with sizes differing by at most one.
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw % 10000)
		p := int(pRaw%64) + 1
		ranges := StaticPartition(n, p)
		if n == 0 {
			return len(ranges) == 0
		}
		lo := 0
		minLen, maxLen := 1<<30, 0
		for _, r := range ranges {
			if r.Lo != lo || r.Hi <= r.Lo {
				return false
			}
			lo = r.Hi
			if l := r.Hi - r.Lo; l < minLen {
				minLen = l
			}
			if l := r.Hi - r.Lo; l > maxLen {
				maxLen = l
			}
		}
		return lo == n && maxLen-minLen <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticPartitionMoreWorkersThanWork(t *testing.T) {
	ranges := StaticPartition(3, 16)
	if len(ranges) != 3 {
		t.Fatalf("got %d ranges, want 3 (no empty blocks)", len(ranges))
	}
}

func TestStaticPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p < 1 must panic")
		}
	}()
	StaticPartition(10, 0)
}

func TestPoolSerialEquivalence(t *testing.T) {
	// Every index is written by exactly one block, so a one-worker pool
	// and an eight-worker pool produce the same output.
	out1 := make([]int, 1000)
	out8 := make([]int, 1000)
	body := func(out []int) func(lo, hi int) {
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = i * i
			}
		}
	}
	for _, run := range []struct {
		workers int
		out     []int
	}{{1, out1}, {8, out8}} {
		pool := NewPool(run.workers)
		pool.Run(len(run.out), body(run.out))
		pool.Close()
	}
	for i := range out1 {
		if out1[i] != out8[i] {
			t.Fatalf("parallel result differs at %d", i)
		}
	}
}

func TestPoolZeroWork(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	called := false
	if !pool.Run(0, func(lo, hi int) { called = true }) {
		t.Fatal("an empty batch on an open pool must report that it ran")
	}
	if called {
		t.Fatal("body must not run for n=0")
	}
}

func TestPoolRun(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	if pool.workers != 4 {
		t.Fatalf("workers = %d", pool.workers)
	}
	var sum int64
	for round := 0; round < 10; round++ { // reuse across batches
		atomic.StoreInt64(&sum, 0)
		pool.Run(5000, func(lo, hi int) {
			atomic.AddInt64(&sum, int64(hi-lo))
		})
		if sum != 5000 {
			t.Fatalf("round %d: covered %d of 5000", round, sum)
		}
	}
}

func TestPoolMinimumOneWorker(t *testing.T) {
	pool := NewPool(0)
	defer pool.Close()
	if pool.workers != 1 {
		t.Fatalf("workers = %d, want clamp to 1", pool.workers)
	}
	ran := false
	pool.Run(1, func(lo, hi int) { ran = true })
	if !ran {
		t.Fatal("single worker pool did not run")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	pool := NewPool(2)
	pool.Close()
	pool.Close() // must not panic
}

func TestPoolRunAfterCloseIsNoOp(t *testing.T) {
	pool := NewPool(2)
	pool.Run(100, func(lo, hi int) {})
	pool.Close()
	ran := false
	ok := pool.Run(100, func(lo, hi int) { ran = true }) // must not panic
	if ran {
		t.Fatal("Run on a closed pool must not execute the body")
	}
	if ok {
		t.Fatal("Run on a closed pool must report the dropped batch")
	}
}

func TestPoolConcurrentRunAndClose(t *testing.T) {
	// Close racing an in-flight Run must neither panic nor lose work:
	// either the batch fully runs (enqueued before the close) or it is
	// dropped whole (pool already closed).
	for trial := 0; trial < 50; trial++ {
		pool := NewPool(4)
		var sum int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			pool.Run(1000, func(lo, hi int) {
				atomic.AddInt64(&sum, int64(hi-lo))
			})
		}()
		pool.Close()
		<-done
		if got := atomic.LoadInt64(&sum); got != 0 && got != 1000 {
			t.Fatalf("trial %d: partial batch ran: covered %d of 1000", trial, got)
		}
	}
}

func TestDefaultThreadsPositive(t *testing.T) {
	if DefaultThreads() < 1 {
		t.Fatal("DefaultThreads must be >= 1")
	}
}
