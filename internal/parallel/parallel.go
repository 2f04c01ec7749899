// Package parallel provides the goroutine-based substitute for the paper's
// OpenMP layer: a static partitioner that divides index ranges into
// contiguous blocks of N/threads elements (OpenMP `schedule(static)` with
// the default chunk, as the paper's TRIAD uses), and a reusable worker
// pool that executes the partitions.
package parallel

import (
	"runtime"
	"sync"
)

// Range is a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// StaticPartition divides [0, n) into at most p contiguous blocks whose
// sizes differ by at most one — the OpenMP static schedule with default
// chunking ("the block size was left to the default value of N/cores",
// §III-B). Fewer than p ranges are returned when n < p. p < 1 panics.
func StaticPartition(n, p int) []Range {
	if p < 1 {
		panic("parallel: StaticPartition with p < 1")
	}
	if n <= 0 {
		return nil
	}
	if p > n {
		p = n
	}
	ranges := make([]Range, p)
	base := n / p
	rem := n % p
	lo := 0
	for i := 0; i < p; i++ {
		size := base
		if i < rem {
			size++
		}
		ranges[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return ranges
}

// DefaultThreads returns the degree of parallelism used by the native
// kernels: GOMAXPROCS, the Go analogue of OMP_NUM_THREADS.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// Pool is a fixed set of workers that repeatedly execute task batches.
// It amortises goroutine startup across benchmark iterations, like an
// OpenMP thread team persisting across parallel regions.
type Pool struct {
	workers int
	tasks   chan task
	wg      sync.WaitGroup // tracks in-flight tasks of the current batch
	closeMu sync.Mutex
	closed  bool
}

// task is one partition's work item. Batches enqueue plain structs
// rather than per-partition closures, so Run allocates nothing per
// range: the body function value is shared and the bounds travel by
// value through the channel buffer.
type task struct {
	body   func(lo, hi int)
	lo, hi int
}

// NewPool starts a pool with the given worker count (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, tasks: make(chan task, workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for t := range p.tasks {
				t.body(t.lo, t.hi)
				p.wg.Done()
			}
		}()
	}
	return p
}

// Run executes body(lo, hi) over a static partition of [0, n) on the pool
// and blocks until every block has finished. It reports whether the batch
// ran: false means the pool was already closed and no work executed — the
// guard keeps a late caller from sending on the closed task channel and
// panicking, and the return value keeps the dropped batch detectable so a
// measurement site never silently records work that did not happen.
//
//rooflint:hotpath
func (p *Pool) Run(n int, body func(lo, hi int)) bool {
	if n <= 0 {
		return true
	}
	// Hold the close lock while enqueueing so Close cannot close the task
	// channel mid-batch; the workers keep draining, so the sends finish.
	p.closeMu.Lock()
	if p.closed {
		p.closeMu.Unlock()
		return false
	}
	ranges := StaticPartition(n, p.workers)
	p.wg.Add(len(ranges))
	for _, r := range ranges {
		//rooflint:allow lockorder -- the workers keep draining tasks while closeMu blocks Close, so the send cannot park forever
		p.tasks <- task{body: body, lo: r.Lo, hi: r.Hi}
	}
	p.closeMu.Unlock()
	p.wg.Wait()
	return true
}

// Close shuts the workers down once in-flight batches finish enqueueing.
// Close is idempotent, and Run after Close is a safe no-op.
func (p *Pool) Close() {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
}
