package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Sampler observes every measured iteration of an evaluation — the
// time-series hook the paper's future-work section asks for ("having a
// time series of the performance of many configurations", §VII). Attach
// one to an Evaluator to record traces for offline analysis or to drive
// the late-bloomer diagnostics in internal/core.
type Sampler interface {
	// Sample is called once per measured iteration with the case key,
	// invocation index, iteration index within the invocation, the
	// measured elapsed time and the derived metric value (base units).
	Sample(key string, invocation, iteration int, elapsed time.Duration, metric float64)
}

// CSVSampler streams samples as CSV rows:
//
//	key,invocation,iteration,elapsed_ns,metric
//
// It is safe for concurrent use: concurrent sweeps may reach one sampler
// at once (directly or via MultiSampler), and the mutex keeps every row
// intact — concurrent evaluations interleave at row granularity, never
// within a row. Flush must be called before reading
// the underlying writer.
type CSVSampler struct {
	mu     sync.Mutex
	w      *csv.Writer
	header bool
}

// NewCSVSampler wraps w. The header row is emitted before the first
// sample.
func NewCSVSampler(w io.Writer) *CSVSampler {
	return &CSVSampler{w: csv.NewWriter(w)}
}

// Sample implements Sampler.
func (s *CSVSampler) Sample(key string, invocation, iteration int, elapsed time.Duration, metric float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.header {
		s.header = true
		_ = s.w.Write([]string{"key", "invocation", "iteration", "elapsed_ns", "metric"})
	}
	_ = s.w.Write([]string{
		key,
		strconv.Itoa(invocation),
		strconv.Itoa(iteration),
		strconv.FormatInt(elapsed.Nanoseconds(), 10),
		strconv.FormatFloat(metric, 'g', -1, 64),
	})
}

// Flush writes buffered rows to the underlying writer and returns any
// write error the csv layer recorded.
func (s *CSVSampler) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Flush()
	return s.w.Error()
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
	// Cap bounds the points retained per key (0 = unbounded); when full,
	// older points are kept and new ones dropped, preserving the ramp.
	Cap int
}

// NewTraceBuffer returns an empty buffer retaining at most capPerKey
// points per configuration (0 for unbounded).
func NewTraceBuffer(capPerKey int) *TraceBuffer {
	return &TraceBuffer{traces: make(map[string][]TracePoint), Cap: capPerKey}
}

// Sample implements Sampler.
func (t *TraceBuffer) Sample(key string, invocation, iteration int, elapsed time.Duration, metric float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pts := t.traces[key]
	if t.Cap > 0 && len(pts) >= t.Cap {
		return
	}
	t.traces[key] = append(pts, TracePoint{
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

// Keys lists the recorded configuration keys.
func (t *TraceBuffer) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.traces))
	for k := range t.traces {
		keys = append(keys, k)
	}
	return keys
}

// Len returns the number of points recorded for a key.
func (t *TraceBuffer) Len(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces[key])
}

// MultiSampler fans samples out to several samplers.
type MultiSampler []Sampler

// Sample implements Sampler.
func (m MultiSampler) Sample(key string, invocation, iteration int, elapsed time.Duration, metric float64) {
	for _, s := range m {
		s.Sample(key, invocation, iteration, elapsed, metric)
	}
}

// String diagnostics for TracePoint.
func (p TracePoint) String() string {
	return fmt.Sprintf("inv %d iter %d: %v (%.4g)", p.Invocation, p.Iteration, p.Elapsed, p.Metric)
}
