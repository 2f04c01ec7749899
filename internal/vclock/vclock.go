// Package vclock provides the timing abstraction that lets the same
// benchmark loops run against real kernels (wall-clock time) and simulated
// kernels (virtual time). The paper's search-time results (Tables VIII-XI)
// measure time *spent benchmarking*; a virtual clock integrates exactly
// that quantity deterministically, so speedup ratios are reproducible.
package vclock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a monotonic time source. Implementations are the real wall
// clock and the simulator's virtual clock.
type Clock interface {
	// Now returns the elapsed time since the clock's origin.
	Now() time.Duration
	// Advance moves the clock forward by d. The real clock implements
	// this by sleeping is NOT desirable in benchmarks, so the real clock's
	// Advance is a no-op: real time advances by itself while kernels run.
	Advance(d time.Duration)
}

// Virtual is a deterministic clock advanced explicitly by the simulated
// engine: every simulated invocation charges its setup, its warm-up and
// each measured step to its sweep's clock. It is safe for concurrent use
// without a lock: the time is one atomic integer, so Advance is a single
// atomic add and Now a single load. Every measured step advances it, so
// a mutex here would be paid once per sample.
type Virtual struct {
	now atomic.Int64 // nanoseconds since the origin
	// _ pads the clock to virtualSize bytes. Every sweep owns a clock and
	// advances it on each kernel step; unpadded, the clocks of sweeps
	// running concurrently on different cores can share one cache line,
	// and every Advance then invalidates the neighbour's line.
	_ [virtualSize - 8]byte
}

// virtualSize is two 64-byte cache lines: adjacent-line prefetchers
// fetch lines in pairs, so one line per clock is not enough. Go's
// 128-byte size class keeps each heap-allocated clock 128-byte aligned.
const virtualSize = 128

// NewVirtual returns a virtual clock at time zero.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the current virtual time.
func (v *Virtual) Now() time.Duration { return time.Duration(v.now.Load()) }

// Advance moves virtual time forward by d. Negative d panics: the clock is
// monotonic by contract.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: Advance by negative duration %v", d))
	}
	v.now.Add(int64(d))
}

// Real is the wall clock, measured from its creation. Advance is a no-op
// because real time passes on its own while real kernels execute.
type Real struct {
	origin time.Time
}

// NewReal returns a wall clock whose origin is now.
func NewReal() *Real { return &Real{origin: time.Now()} }

// Now returns the wall time elapsed since the clock was created.
func (r *Real) Now() time.Duration { return time.Since(r.origin) }

// Advance is a no-op on the real clock.
func (r *Real) Advance(time.Duration) {}

// Stopwatch measures an interval on any Clock, mimicking the paper's
// gettimeofday-before/after pattern.
type Stopwatch struct {
	clock Clock
	start time.Duration
}

// NewStopwatch starts a stopwatch on clock.
func NewStopwatch(clock Clock) *Stopwatch {
	return &Stopwatch{clock: clock, start: clock.Now()}
}

// Elapsed returns time since the stopwatch started.
func (s *Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }

// QuantizeMicro rounds d to microsecond resolution, the granularity of
// gettimeofday that the paper's measurement loop observes. The simulator
// applies this to every sample so that very short kernels exhibit the same
// quantisation noise a real benchmark would.
func QuantizeMicro(d time.Duration) time.Duration {
	return d.Truncate(time.Microsecond)
}

// Time runs f and returns its wall-clock duration, quantised like the
// paper's gettimeofday-before/after pattern. It is the one sanctioned
// wall-clock measurement primitive: native kernel Steps call it instead
// of touching time.Now directly, so the rooflint nodeterminism analyzer
// can forbid raw wall-clock reads everywhere on the measurement path
// while real kernels keep measuring real time here.
func Time(f func()) time.Duration {
	start := time.Now()
	f()
	return QuantizeMicro(time.Since(start))
}
