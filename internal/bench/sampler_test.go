package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"rooftune/internal/vclock"
)

func TestCSVSampler(t *testing.T) {
	var sb strings.Builder
	s := NewCSVSampler(&sb)
	s.Sample("k1", 0, 0, 1500*time.Microsecond, 2.5e11)
	s.Sample("k1", 0, 1, 1400*time.Microsecond, 2.6e11)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows: %d\n%s", len(lines), out)
	}
	if lines[0] != "key,invocation,iteration,elapsed_ns,metric" {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "k1,0,0,1500000,") {
		t.Fatalf("row 1: %q", lines[1])
	}
}

func TestCSVSamplerConcurrent(t *testing.T) {
	// Concurrent sweeps reach one sampler at once (directly or through
	// MultiSampler); every emitted row must stay intact — interleaving is
	// allowed only at row granularity. Run under -race in CI.
	var sb strings.Builder
	s := NewCSVSampler(&sb)
	const workers, rows = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", w)
			for i := 0; i < rows; i++ {
				s.Sample(key, 0, i, time.Millisecond, 1e9)
			}
		}(w)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("concurrent writes corrupted the CSV stream: %v", err)
	}
	if len(recs) != workers*rows+1 {
		t.Fatalf("rows: %d, want %d plus header", len(recs)-1, workers*rows)
	}
	perKey := map[string]int{}
	for _, rec := range recs[1:] {
		if len(rec) != 5 {
			t.Fatalf("malformed row: %v", rec)
		}
		perKey[rec[0]]++
	}
	for w := 0; w < workers; w++ {
		if got := perKey[fmt.Sprintf("k%d", w)]; got != rows {
			t.Fatalf("worker %d: %d rows, want %d", w, got, rows)
		}
	}
}

func TestTraceBuffer(t *testing.T) {
	b := NewTraceBuffer(0)
	b.Sample("a", 0, 0, time.Millisecond, 1)
	b.Sample("a", 0, 1, time.Millisecond, 2)
	b.Sample("b", 1, 0, time.Millisecond, 3)
	if b.Len("a") != 2 || b.Len("b") != 1 {
		t.Fatalf("lens: %d %d", b.Len("a"), b.Len("b"))
	}
	tr := b.Trace("a")
	if tr[1].Metric != 2 || tr[1].Iteration != 1 {
		t.Fatalf("trace: %+v", tr)
	}
	if len(b.Keys()) != 2 {
		t.Fatalf("keys: %v", b.Keys())
	}
	// Returned slices are copies.
	tr[0].Metric = 99
	if b.Trace("a")[0].Metric == 99 {
		t.Fatal("Trace must copy")
	}
}

func TestTraceBufferCap(t *testing.T) {
	b := NewTraceBuffer(3)
	for i := 0; i < 10; i++ {
		b.Sample("k", 0, i, time.Millisecond, float64(i))
	}
	if b.Len("k") != 3 {
		t.Fatalf("cap not enforced: %d", b.Len("k"))
	}
	// The earliest points (the ramp) are the ones retained.
	if b.Trace("k")[0].Metric != 0 {
		t.Fatal("cap must keep the oldest points")
	}
}

func TestEvaluatorSamplerWiring(t *testing.T) {
	clock := vclock.NewVirtual()
	buf := NewTraceBuffer(0)
	b := DefaultBudget()
	b.Invocations = 2
	b.MaxIterations = 5
	e := NewEvaluator(clock, b)
	e.Sampler = buf
	out, err := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), NoBest)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len(out.Key) != out.TotalSamples {
		t.Fatalf("sampler saw %d of %d samples", buf.Len(out.Key), out.TotalSamples)
	}
	tr := buf.Trace(out.Key)
	if tr[0].Invocation != 0 || tr[len(tr)-1].Invocation != 1 {
		t.Fatal("invocation indices wrong")
	}
	if tr[0].String() == "" {
		t.Fatal("TracePoint.String")
	}
}

func TestMultiSampler(t *testing.T) {
	a, b := NewTraceBuffer(0), NewTraceBuffer(0)
	m := MultiSampler{a, b}
	m.Sample("k", 0, 0, time.Millisecond, 1)
	if a.Len("k") != 1 || b.Len("k") != 1 {
		t.Fatal("fan-out broken")
	}
}

// rampCase emits a rising metric (falling duration) that stabilises after
// rampLen iterations — the §III-C4 late-bloomer shape.
type rampCase struct {
	clock   *vclock.Virtual
	rampLen int
}

func (r *rampCase) Key() string      { return "ramp" }
func (r *rampCase) Config() Config   { return nil }
func (r *rampCase) Describe() string { return "ramp" }
func (r *rampCase) Metric() Metric   { return MetricFlops }
func (r *rampCase) NewInvocation(inv int) (Instance, error) {
	return &rampInstance{c: r}, nil
}

type rampInstance struct {
	c *rampCase
	i int
}

func (ri *rampInstance) Warmup() {}
func (ri *rampInstance) Step() time.Duration {
	// Duration falls from 2ms toward 1ms over rampLen iterations.
	frac := float64(ri.i) / float64(ri.c.rampLen)
	if frac > 1 {
		frac = 1
	}
	d := time.Duration((2 - frac) * float64(time.Millisecond))
	ri.i++
	ri.c.clock.Advance(d)
	return d
}
func (ri *rampInstance) Work() float64 { return 1e9 }
func (ri *rampInstance) Close()        {}

func TestSteadyStateExcludesRamp(t *testing.T) {
	// Without steady-state handling, the inner bound prunes this late
	// bloomer against an incumbent equal to its steady value; with
	// steady-state exclusion it survives and measures correctly.
	steadyMetric := 1e9 / 0.001 // 1e12 once warmed up
	best := steadyMetric * 0.97 // incumbent 3% below the steady value

	run := func(useSteady bool) *Outcome {
		clock := vclock.NewVirtual()
		c := &rampCase{clock: clock, rampLen: 40}
		b := DefaultBudget()
		b.Invocations = 1
		b.MaxIterations = 150
		b.UseInnerBound = true
		b.UseSteadyState = useSteady
		b.SteadyWindow = 8
		b.SteadyThreshold = 0.01
		e := NewEvaluator(clock, b)
		out, err := e.Evaluate(context.Background(), c, best)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	plain := run(false)
	if plain.InnerStops != 1 {
		t.Fatalf("without steady-state the ramp must be pruned (got %+v)", plain.Invocations[0])
	}
	fixed := run(true)
	if fixed.InnerStops != 0 {
		t.Fatalf("steady-state exclusion must save the late bloomer (got %+v)", fixed.Invocations[0])
	}
	// And its measured mean must reflect the steady value, not the ramp.
	if math.Abs(fixed.Mean-steadyMetric)/steadyMetric > 0.02 {
		t.Fatalf("steady mean %.3g, want ~%.3g", fixed.Mean, steadyMetric)
	}
}

func TestSteadyStateFallbackWhenNeverSteady(t *testing.T) {
	clock := vclock.NewVirtual()
	c := &rampCase{clock: clock, rampLen: 10000} // never stabilises
	b := DefaultBudget()
	b.Invocations = 1
	b.MaxIterations = 50
	b.UseSteadyState = true
	b.SteadyThreshold = 1e-9 // unreachable
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), c, NoBest)
	if err != nil {
		t.Fatal(err)
	}
	// All samples retained (no reset ever happened).
	if out.Invocations[0].Samples != 50 {
		t.Fatalf("fallback must keep all samples: %d", out.Invocations[0].Samples)
	}
}
