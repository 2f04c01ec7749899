package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/vclock"
)

// scriptedCase is a deterministic fake benchmark whose iteration times
// follow a script, letting every stop condition be tested in isolation.
type scriptedCase struct {
	key   string
	clock *vclock.Virtual
	work  float64
	// times returns the duration of iteration i for invocation inv.
	times func(inv, i int) time.Duration
	// invocationsStarted counts NewInvocation calls.
	invocationsStarted int
}

func (s *scriptedCase) Key() string      { return s.key }
func (s *scriptedCase) Config() Config   { return nil }
func (s *scriptedCase) Describe() string { return "scripted " + s.key }
func (s *scriptedCase) Metric() Metric   { return MetricFlops }

func (s *scriptedCase) NewInvocation(inv int) (Instance, error) {
	s.invocationsStarted++
	return &scriptedInstance{c: s, inv: inv}, nil
}

type scriptedInstance struct {
	c      *scriptedCase
	inv, i int
	warmed bool
}

func (si *scriptedInstance) Warmup() { si.warmed = true }

func (si *scriptedInstance) Step() time.Duration {
	if !si.warmed {
		panic("Step before Warmup")
	}
	d := si.c.times(si.inv, si.i)
	si.i++
	si.c.clock.Advance(d)
	return d
}

func (si *scriptedInstance) Work() float64 { return si.c.work }
func (si *scriptedInstance) Close()        {}

func constantCase(clock *vclock.Virtual, d time.Duration) *scriptedCase {
	return &scriptedCase{
		key: "const", clock: clock, work: 1e9,
		times: func(inv, i int) time.Duration { return d },
	}
}

func TestStopMaxCount(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 2
	b.MaxIterations = 7
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), NoBest)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Invocations) != 2 {
		t.Fatalf("invocations = %d", len(out.Invocations))
	}
	for _, inv := range out.Invocations {
		if inv.Samples != 7 || inv.Reason != StopMaxCount {
			t.Fatalf("invocation: %+v", inv)
		}
	}
	if out.TotalSamples != 14 {
		t.Fatalf("TotalSamples = %d", out.TotalSamples)
	}
	// metric = 1e9 work / 1ms = 1e12.
	if math.Abs(out.Mean-1e12) > 1 {
		t.Fatalf("Mean = %v", out.Mean)
	}
}

func TestStopMaxTimePerInvocation(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 3
	b.MaxIterations = 1000
	b.MaxTime = 10 * time.Millisecond
	b.Scope = ScopePerInvocation
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), constantCase(clock, 3*time.Millisecond), NoBest)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Invocations) != 3 {
		t.Fatalf("per-invocation scope must run all invocations: %d", len(out.Invocations))
	}
	for _, inv := range out.Invocations {
		// 4 iterations reach 12ms >= 10ms.
		if inv.Samples != 4 || inv.Reason != StopMaxTime {
			t.Fatalf("invocation: %+v", inv)
		}
	}
}

func TestStopMaxTimePerConfig(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 10
	b.MaxIterations = 1000
	b.MaxTime = 10 * time.Millisecond
	b.Scope = ScopePerConfig
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), constantCase(clock, 3*time.Millisecond), NoBest)
	if err != nil {
		t.Fatal(err)
	}
	// Invocation 1 burns 12ms >= 10ms total: remaining 9 are skipped.
	if len(out.Invocations) != 1 {
		t.Fatalf("per-config scope must skip remaining invocations: got %d", len(out.Invocations))
	}
}

func TestStopConfidenceConstantSamples(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 1
	b.UseConfidence = true
	b.MinCISamples = 5
	e := NewEvaluator(clock, b)
	// Constant samples: zero variance, CI collapses at the first check.
	out, err := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), NoBest)
	if err != nil {
		t.Fatal(err)
	}
	inv := out.Invocations[0]
	if inv.Reason != StopConfidence {
		t.Fatalf("reason = %v", inv.Reason)
	}
	if inv.Samples != b.MinCISamples {
		t.Fatalf("should stop at the first permitted check: n=%d", inv.Samples)
	}
}

func TestConfidenceRespectsMinCISamples(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 1
	b.UseConfidence = true
	b.MinCISamples = 17
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), NoBest)
	if out.Invocations[0].Samples != 17 {
		t.Fatalf("stopped at n=%d, want 17", out.Invocations[0].Samples)
	}
}

func TestInnerBoundEndsInvocationNotConfig(t *testing.T) {
	clock := vclock.NewVirtual()
	// Slow case: metric 1e11; incumbent best is 1e12 — hopeless.
	c := constantCase(clock, 10*time.Millisecond)
	b := DefaultBudget()
	b.Invocations = 4
	b.UseInnerBound = true
	b.MinCount = 2
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), c, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	// Every invocation stops at MinCount via the bound, but the
	// invocation loop itself continues (that is the Outer flag's job).
	if len(out.Invocations) != 4 {
		t.Fatalf("inner bound must not abandon the config: %d invocations", len(out.Invocations))
	}
	if out.InnerStops != 4 {
		t.Fatalf("InnerStops = %d", out.InnerStops)
	}
	for _, inv := range out.Invocations {
		if inv.Reason != StopBound || inv.Samples != 2 {
			t.Fatalf("invocation: %+v", inv)
		}
	}
	if out.Pruned {
		t.Fatal("inner stops alone must not set Pruned")
	}
	if out.Better(1e12) {
		t.Fatal("a bound-stopped config must never beat the incumbent")
	}
}

func TestInnerBoundRespectsMinCount(t *testing.T) {
	clock := vclock.NewVirtual()
	c := constantCase(clock, 10*time.Millisecond)
	b := DefaultBudget()
	b.Invocations = 1
	b.MaxIterations = 300
	b.UseInnerBound = true
	b.MinCount = 100 // the paper's 2695v4 remedy
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), c, 1e12)
	if got := out.Invocations[0].Samples; got != 100 {
		t.Fatalf("bound fired at n=%d, want exactly min_count=100", got)
	}
}

func TestOuterBoundPrunesConfig(t *testing.T) {
	clock := vclock.NewVirtual()
	c := constantCase(clock, 10*time.Millisecond)
	b := DefaultBudget()
	b.Invocations = 10
	b.MaxIterations = 5
	b.UseOuterBound = true
	e := NewEvaluator(clock, b)
	out, err := e.Evaluate(context.Background(), c, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Pruned {
		t.Fatal("outer bound must prune")
	}
	if len(out.Invocations) != 2 {
		t.Fatalf("outer bound needs exactly 2 invocation means: got %d", len(out.Invocations))
	}
}

func TestOuterBoundNeedsTwoInvocations(t *testing.T) {
	clock := vclock.NewVirtual()
	c := constantCase(clock, 10*time.Millisecond)
	b := DefaultBudget()
	b.Invocations = 1
	b.MaxIterations = 5
	b.UseOuterBound = true
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), c, 1e12)
	if out.Pruned {
		t.Fatal("outer bound must not fire with a single invocation mean")
	}
}

func TestNoBoundWithoutIncumbent(t *testing.T) {
	clock := vclock.NewVirtual()
	c := constantCase(clock, time.Millisecond)
	b := DefaultBudget()
	b.Invocations = 2
	b.MaxIterations = 5
	b.UseInnerBound = true
	b.UseOuterBound = true
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), c, NoBest)
	if out.Pruned || out.InnerStops > 0 {
		t.Fatal("stop condition 4 must never fire against NoBest")
	}
}

func TestListing1Semantics(t *testing.T) {
	// Listing 1: break when mean + marg < best. A case whose metric sits
	// just *below* best but whose CI still reaches best must keep
	// running; one far below stops at MinCount.
	clock := vclock.NewVirtual()
	jitter := []time.Duration{
		1000 * time.Microsecond, 1040 * time.Microsecond,
		960 * time.Microsecond, 1020 * time.Microsecond,
		980 * time.Microsecond, 1010 * time.Microsecond,
	}
	c := &scriptedCase{
		key: "near", clock: clock, work: 1e9,
		times: func(inv, i int) time.Duration { return jitter[i%len(jitter)] },
	}
	b := DefaultBudget()
	b.Invocations = 1
	b.MaxIterations = 6
	b.UseInnerBound = true
	e := NewEvaluator(clock, b)
	// mean metric ~1e12; best just 0.5% above: CI (wide, n small) covers it.
	out, _ := e.Evaluate(context.Background(), c, 1.005e12)
	if out.Invocations[0].Reason == StopBound {
		t.Fatal("bound fired although the CI still covered the incumbent")
	}
	// best 40% above: hopeless, prune at MinCount.
	clock2 := vclock.NewVirtual()
	c.clock = clock2
	e2 := NewEvaluator(clock2, b)
	out2, _ := e2.Evaluate(context.Background(), c, 1.4e12)
	if out2.Invocations[0].Reason != StopBound {
		t.Fatalf("bound must fire against a hopeless incumbent: %+v", out2.Invocations[0])
	}
}

func TestElapsedTracksClock(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 2
	b.MaxIterations = 10
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), NoBest)
	if out.Elapsed != clock.Now() {
		t.Fatalf("Elapsed %v != clock %v", out.Elapsed, clock.Now())
	}
	if out.Elapsed < 20*time.Millisecond {
		t.Fatalf("Elapsed %v implausibly small", out.Elapsed)
	}
}

func TestMeanOverInvocationMeans(t *testing.T) {
	clock := vclock.NewVirtual()
	// Invocation 0 runs at 1ms, invocation 1 at 2ms: metrics 1e12 and
	// 5e11; the config mean is their average.
	c := &scriptedCase{
		key: "two-speeds", clock: clock, work: 1e9,
		times: func(inv, i int) time.Duration {
			return time.Duration(inv+1) * time.Millisecond
		},
	}
	b := DefaultBudget()
	b.Invocations = 2
	b.MaxIterations = 4
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), c, NoBest)
	want := (1e12 + 5e11) / 2
	if math.Abs(out.Mean-want)/want > 1e-9 {
		t.Fatalf("Mean = %v, want %v", out.Mean, want)
	}
}

func TestStudentTBudget(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 1
	b.MaxIterations = 12
	b.UseConfidence = true
	b.UseStudentT = true
	b.MinCISamples = 5
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), NoBest)
	if out.Invocations[0].Reason != StopConfidence {
		t.Fatal("t-interval must also converge on constant data")
	}
}

func TestMedianStopCondition(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 1
	b.UseConfidence = true
	b.UseMedian = true
	b.MinCISamples = 5
	e := NewEvaluator(clock, b)
	out, _ := e.Evaluate(context.Background(), constantCase(clock, time.Millisecond), NoBest)
	if out.Invocations[0].Reason != StopConfidence {
		t.Fatal("median rule must converge on constant data")
	}
}

func TestBudgetNormalization(t *testing.T) {
	var b Budget // all zero
	n := b.normalized()
	if n.Invocations != 1 || n.MaxIterations != 1 || n.MaxTime <= 0 ||
		n.ErrorInverse != 100 || n.CILevel != 0.99 || n.MinCount != 2 || n.MinCISamples != 2 {
		t.Fatalf("normalized zero budget: %+v", n)
	}
}

func TestDefaultBudgetIsTableI(t *testing.T) {
	b := DefaultBudget()
	if b.Invocations != 10 || b.MaxIterations != 200 ||
		b.MaxTime != 10*time.Second || b.ErrorInverse != 100 || b.CILevel != 0.99 {
		t.Fatalf("Table I mismatch: %+v", b)
	}
	if b.RelWidthTarget() != 0.01 {
		t.Fatalf("Error=100 must mean ±1%%: %v", b.RelWidthTarget())
	}
	if b.UseConfidence || b.UseInnerBound || b.UseOuterBound {
		t.Fatal("Default technique must have every optimisation off")
	}
}

func TestWithFlagsAndMinCount(t *testing.T) {
	b := DefaultBudget().WithFlags(true, true, false).WithMinCount(100)
	if !b.UseConfidence || !b.UseInnerBound || b.UseOuterBound || b.MinCount != 100 {
		t.Fatalf("WithFlags/WithMinCount: %+v", b)
	}
}

func TestStopReasonStrings(t *testing.T) {
	for r, want := range map[StopReason]string{
		StopNone: "none", StopMaxTime: "max-time", StopMaxCount: "max-count",
		StopConfidence: "confidence", StopBound: "bound-pruned",
	} {
		if r.String() != want {
			t.Errorf("StopReason(%d) = %q", int(r), r.String())
		}
	}
}

func TestEvaluateErrorPropagation(t *testing.T) {
	clock := vclock.NewVirtual()
	e := NewEvaluator(clock, DefaultBudget())
	_, err := e.Evaluate(context.Background(), &failingCase{}, NoBest)
	if err == nil {
		t.Fatal("engine errors must propagate")
	}
}

type failingCase struct{}

func (f *failingCase) Key() string      { return "fail" }
func (f *failingCase) Config() Config   { return nil }
func (f *failingCase) Describe() string { return "fail" }
func (f *failingCase) Metric() Metric   { return MetricFlops }
func (f *failingCase) NewInvocation(int) (Instance, error) {
	return nil, fmt.Errorf("boom")
}

func TestEvaluateCancellation(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 5
	b.MaxIterations = 1000
	e := NewEvaluator(clock, b)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Evaluate(ctx, constantCase(clock, time.Millisecond), NoBest); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancel mid-evaluation: the sampler observes iterations, so cancel
	// from the measurement path itself and count how far the loop ran.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	e.Sampler = samplerFunc(func() {
		if seen.Add(1) == 3 {
			cancel()
		}
	})
	out, err := e.Evaluate(ctx, constantCase(clock, time.Millisecond), NoBest)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("canceled evaluation leaked a partial outcome: %+v", out)
	}
	if got := seen.Load(); got != 3 {
		t.Fatalf("iterations after cancel: %d samples, want exactly 3", got)
	}
}

// errCountingCtx counts Err calls on a cancelable context.
type errCountingCtx struct {
	context.Context
	errs atomic.Int64
}

func (c *errCountingCtx) Err() error {
	c.errs.Add(1)
	return c.Context.Err()
}

// TestEvaluateErrPerInvocation pins the lock-free cancellation check: on
// a cancelable context Err takes the context's mutex, which every
// concurrently running sweep shares, so the per-Step check must poll
// Done instead. One evaluation may call Err a bounded number of times
// per invocation, never once per Step.
func TestEvaluateErrPerInvocation(t *testing.T) {
	clock := vclock.NewVirtual()
	b := DefaultBudget()
	b.Invocations = 4
	b.MaxIterations = 200
	e := NewEvaluator(clock, b)
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &errCountingCtx{Context: parent}
	out, err := e.Evaluate(ctx, constantCase(clock, time.Millisecond), NoBest)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalSamples != b.Invocations*b.MaxIterations {
		t.Fatalf("TotalSamples = %d, want %d", out.TotalSamples, b.Invocations*b.MaxIterations)
	}
	if got, limit := ctx.errs.Load(), int64(2*b.Invocations+1); got > limit {
		t.Fatalf("Evaluate called Err %d times over %d steps, want at most %d", got, out.TotalSamples, limit)
	}
}

// samplerFunc adapts a closure to the Sampler interface for tests.
type samplerFunc func()

func (f samplerFunc) Sample(string, int, int, time.Duration, float64) { f() }

// TestEvaluatorQuantileFollowsLevel: the evaluator memoizes the normal
// quantile of its CI level, and Budget is an exported field, so a level
// changed between evaluations must take effect: each outcome equals a
// fresh evaluator's at that level.
func TestEvaluatorQuantileFollowsLevel(t *testing.T) {
	ctx := context.Background()
	budget := func(level float64) Budget {
		b := DefaultBudget().WithFlags(true, false, false)
		b.CILevel = level
		return b
	}
	reused := NewSimEngine(hw.IdunGold6148, 1021)
	c := reused.DGEMMCase(1000, 4096, 128, 1)
	e := NewEvaluator(reused.Clock, budget(0.99))
	fresh := NewSimEngine(hw.IdunGold6148, 1021)
	fc := fresh.DGEMMCase(1000, 4096, 128, 1)
	var samples []int
	for _, level := range []float64{0.99, 0.5, 0.99} {
		e.Budget.CILevel = level
		got, err := e.Evaluate(ctx, c, NoBest)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEvaluator(fresh.Clock, budget(level)).Evaluate(ctx, fc, NoBest)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("level %v: reused evaluator's outcome differs from a fresh one's:\n%+v\n%+v", level, got, want)
		}
		samples = append(samples, got.TotalSamples)
	}
	if samples[1] >= samples[0] {
		t.Fatalf("samples %v: a 50%% interval must converge sooner than a 99%% one", samples)
	}
}
