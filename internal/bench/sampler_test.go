package bench

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"rooftune/internal/vclock"
)

func TestTraceBufferConcurrent(t *testing.T) {
	// Concurrent sweeps reach one buffer at once; every sample must land
	// in its key's trace, in each writer's order. Run under -race in CI.
	b := NewTraceBuffer()
	const workers, rows = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", w)
			for i := 0; i < rows; i++ {
				b.Sample(key, 0, i, time.Millisecond, 1e9)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		tr := b.Trace(fmt.Sprintf("k%d", w))
		if len(tr) != rows {
			t.Fatalf("worker %d: %d points, want %d", w, len(tr), rows)
		}
		for i, p := range tr {
			if p.Iteration != i {
				t.Fatalf("worker %d: point %d has iteration %d", w, i, p.Iteration)
			}
		}
	}
}

func TestTraceBuffer(t *testing.T) {
	b := NewTraceBuffer()
	b.Sample("a", 0, 0, time.Millisecond, 1)
	b.Sample("a", 0, 1, time.Millisecond, 2)
	b.Sample("b", 1, 0, time.Millisecond, 3)
	if len(b.Trace("a")) != 2 || len(b.Trace("b")) != 1 || b.Trace("c") != nil {
		t.Fatalf("lens: %d %d %d", len(b.Trace("a")), len(b.Trace("b")), len(b.Trace("c")))
	}
	tr := b.Trace("a")
	if tr[1].Metric != 2 || tr[1].Iteration != 1 {
		t.Fatalf("trace: %+v", tr)
	}
	// Returned slices are copies.
	tr[0].Metric = 99
	if b.Trace("a")[0].Metric == 99 {
		t.Fatal("Trace must copy")
	}
}

func TestEvaluatorSamplerWiring(t *testing.T) {
	clock := vclock.NewVirtual()
	buf := NewTraceBuffer()
	b := DefaultBudget()
	b.Invocations = 2
	b.MaxIterations = 5
	e := NewEvaluator(clock, b)
	e.Sampler = buf
	out, err := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), NoBest)
	if err != nil {
		t.Fatal(err)
	}
	tr := buf.Trace(out.Key)
	if len(tr) != out.TotalSamples {
		t.Fatalf("sampler saw %d of %d samples", len(tr), out.TotalSamples)
	}
	if tr[0].Invocation != 0 || tr[len(tr)-1].Invocation != 1 {
		t.Fatal("invocation indices wrong")
	}
	if tr[0].String() == "" {
		t.Fatal("TracePoint.String")
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
