package bench

import (
	"fmt"
	"sync"
	"time"
)

// Sampler observes every measured iteration of an evaluation — the
// time-series hook the paper's future-work section asks for ("having a
// time series of the performance of many configurations", §VII). Its
// implementation is TraceBuffer, which keeps the series in memory; the
// distribution study in internal/experiments reads its iteration times.
// An Evaluator's re-evaluations (second chance in internal/core) report
// to the same sampler.
type Sampler interface {
	// Sample is called once per measured iteration with the case key,
	// invocation index, iteration index within the invocation, the
	// measured elapsed time and the derived metric value (base units).
	Sample(key string, invocation, iteration int, elapsed time.Duration, metric float64)
}

// TracePoint is one recorded iteration.
type TracePoint struct {
	Invocation int
	Iteration  int
	Elapsed    time.Duration
	Metric     float64
}

// TraceBuffer retains samples in memory, grouped per case key. It is
// safe for concurrent use (parallel campaigns record into one buffer).
type TraceBuffer struct {
	mu     sync.Mutex
	traces map[string][]TracePoint
}

// NewTraceBuffer returns an empty buffer.
func NewTraceBuffer() *TraceBuffer {
	return &TraceBuffer{traces: make(map[string][]TracePoint)}
}

// Sample implements Sampler.
func (t *TraceBuffer) Sample(key string, invocation, iteration int, elapsed time.Duration, metric float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces[key] = append(t.traces[key], TracePoint{
		Invocation: invocation, Iteration: iteration,
		Elapsed: elapsed, Metric: metric,
	})
}

// Trace returns the recorded points for a key (nil if none).
func (t *TraceBuffer) Trace(key string) []TracePoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TracePoint(nil), t.traces[key]...)
}

// String diagnostics for TracePoint.
func (p TracePoint) String() string {
	return fmt.Sprintf("inv %d iter %d: %v (%.4g)", p.Invocation, p.Iteration, p.Elapsed, p.Metric)
}
