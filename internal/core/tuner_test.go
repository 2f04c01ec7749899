package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/vclock"
	"rooftune/internal/xrand"
)

// valueCase is a fake benchmark with a fixed metric value.
type valueCase struct {
	id    int
	value float64 // metric in base units
	clock *vclock.Virtual
	cost  time.Duration
}

func (v *valueCase) Key() string          { return fmt.Sprintf("case-%d", v.id) }
func (v *valueCase) Config() bench.Config { return nil }
func (v *valueCase) Describe() string     { return v.Key() }
func (v *valueCase) Metric() bench.Metric {
	return bench.MetricFlops
}

func (v *valueCase) NewInvocation(inv int) (bench.Instance, error) {
	return &valueInstance{c: v}, nil
}

type valueInstance struct{ c *valueCase }

func (i *valueInstance) Warmup() {}
func (i *valueInstance) Step() time.Duration {
	i.c.clock.Advance(i.c.cost)
	return i.c.cost
}
func (i *valueInstance) Work() float64 {
	return i.c.value * i.c.cost.Seconds()
}
func (i *valueInstance) Close() {}

func makeCases(clock *vclock.Virtual, values []float64) []bench.Case {
	cases := make([]bench.Case, len(values))
	for i, v := range values {
		cases[i] = &valueCase{id: i, value: v, clock: clock, cost: time.Millisecond}
	}
	return cases
}

func quickBudget() bench.Budget {
	return bench.Budget{Invocations: 2, MaxIterations: 4,
		MaxTime: time.Hour, ErrorInverse: 100, CILevel: 0.99}
}

func TestTunerFindsMaximum(t *testing.T) {
	clock := vclock.NewVirtual()
	values := []float64{3, 9, 1, 7, 9.5, 2}
	tuner := NewTuner(clock, quickBudget())
	res, err := tuner.Run(context.Background(), makeCases(clock, values))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Key != "case-4" {
		t.Fatalf("best = %s", res.Best.Key)
	}
	if math.Abs(res.BestValue()-9.5) > 1e-9 {
		t.Fatalf("best value = %v", res.BestValue())
	}
	if len(res.All) != 6 {
		t.Fatalf("evaluated %d of 6", len(res.All))
	}
}

func TestTunerOrderings(t *testing.T) {
	clock := vclock.NewVirtual()
	values := []float64{1, 2, 3, 4}
	var visited []string
	tuner := NewTuner(clock, quickBudget())
	tuner.OnOutcome = func(o *bench.Outcome) { visited = append(visited, o.Key) }
	if _, err := tuner.Run(context.Background(), Arrange(makeCases(clock, values), OrderReverse, 1)); err != nil {
		t.Fatal(err)
	}
	if visited[0] != "case-3" || visited[3] != "case-0" {
		t.Fatalf("reverse order visited %v", visited)
	}

	visited = nil
	if _, err := tuner.Run(context.Background(), Arrange(makeCases(clock, values), OrderRandom, 3)); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, k := range visited {
		seen[k] = true
	}
	if len(seen) != 4 {
		t.Fatalf("random order must visit each case once: %v", visited)
	}

	// Random order is deterministic per shuffle seed.
	again := Arrange(makeCases(clock, values), OrderRandom, 3)
	for i := range visited {
		if visited[i] != again[i].Key() {
			t.Fatal("random order not reproducible for the same seed")
		}
	}
}

// TestArrange pins the three traversal orders on a plain slice: forward
// and reverse are exact, and the seeded shuffle is xrand's permutation
// for that seed. Arrange never aliases its input.
func TestArrange(t *testing.T) {
	s := []int{10, 11, 12, 13, 14}
	if got := Arrange(s, OrderForward, 1); fmt.Sprint(got) != "[10 11 12 13 14]" {
		t.Fatalf("forward = %v", got)
	}
	if got := Arrange(s, OrderReverse, 1); fmt.Sprint(got) != "[14 13 12 11 10]" {
		t.Fatalf("reverse = %v", got)
	}
	perm := xrand.New(7).Perm(len(s))
	got := Arrange(s, OrderRandom, 7)
	for i, p := range perm {
		if got[i] != s[p] {
			t.Fatalf("random = %v, want permutation %v of %v", got, perm, s)
		}
	}
	got[0] = -1
	if s[0] != 10 {
		t.Fatal("Arrange aliases its input")
	}
}

func TestTunerOrderIndependentOptimum(t *testing.T) {
	values := []float64{5, 8, 2, 10, 7, 1, 9}
	for _, order := range []Order{OrderForward, OrderReverse, OrderRandom} {
		clock := vclock.NewVirtual()
		tuner := NewTuner(clock, quickBudget())
		res, err := tuner.Run(context.Background(), Arrange(makeCases(clock, values), order, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Key != "case-3" {
			t.Fatalf("%v order found %s", order, res.Best.Key)
		}
	}
}

func TestTunerPruningWithOuterBound(t *testing.T) {
	clock := vclock.NewVirtual()
	// Strong first case; the rest are hopeless and must be outer-pruned.
	values := []float64{100, 10, 20, 30}
	b := quickBudget()
	b.Invocations = 6
	b.UseOuterBound = true
	tuner := NewTuner(clock, b)
	res, err := tuner.Run(context.Background(), makeCases(clock, values))
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedCount != 3 {
		t.Fatalf("pruned %d of 3 hopeless cases", res.PrunedCount)
	}
	if res.Best.Key != "case-0" {
		t.Fatalf("best = %s", res.Best.Key)
	}
	// Pruned cases must have stopped after exactly 2 invocations.
	for _, o := range res.All[1:] {
		if len(o.Invocations) != 2 {
			t.Fatalf("pruned case ran %d invocations", len(o.Invocations))
		}
	}
}

func TestTunerSamplesAndElapsed(t *testing.T) {
	clock := vclock.NewVirtual()
	values := []float64{1, 2}
	tuner := NewTuner(clock, quickBudget())
	res, err := tuner.Run(context.Background(), makeCases(clock, values))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSamples != 2*2*4 {
		t.Fatalf("TotalSamples = %d", res.TotalSamples)
	}
	if res.Elapsed != clock.Now() {
		t.Fatalf("Elapsed %v != clock %v", res.Elapsed, clock.Now())
	}
}

// runOrdered is a helper running one tuner over fresh cases.
func runOrdered(t *testing.T, b bench.Budget, order Order, incumbent float64, values []float64) *Result {
	t.Helper()
	clock := vclock.NewVirtual()
	tuner := NewTuner(clock, b)
	tuner.Incumbent = incumbent
	res, err := tuner.Run(context.Background(), Arrange(makeCases(clock, values), order, 1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTunerTieBreaksByTraversalIndex(t *testing.T) {
	// Two exactly tied maxima: the winner must be the one earlier in
	// traversal order — case-1 forward, case-2 reverse.
	values := []float64{7, 9, 9, 3}
	want := map[Order]string{OrderForward: "case-1", OrderReverse: "case-2"}
	for order, key := range want {
		res := runOrdered(t, quickBudget(), order, 0, values)
		if res.Best.Key != key {
			t.Fatalf("%v: winner %s, want %s", order, res.Best.Key, key)
		}
	}
}

func TestTunerPreSeededIncumbent(t *testing.T) {
	b := quickBudget()
	b.Invocations = 4
	b.UseOuterBound = true
	values := []float64{10, 100, 20, 30}
	// A seed below the best: the winner survives, hopeless cases are
	// prunable from the very first evaluation, and the result is a real
	// measurement.
	res := runOrdered(t, b, OrderForward, 50, values)
	if res.Best.Key != "case-1" || res.BestPruned {
		t.Fatalf("best %s, BestPruned %v", res.Best.Key, res.BestPruned)
	}
	// A seed above everything: every configuration is outer-pruned and
	// Best degrades to a salvage value, which must be flagged.
	res = runOrdered(t, b, OrderForward, 1000, values)
	if res.PrunedCount != len(values) {
		t.Fatalf("pruned %d of %d", res.PrunedCount, len(values))
	}
	if res.Best == nil || !res.BestPruned {
		t.Fatalf("all-pruned salvage not flagged: best %v, BestPruned %v", res.Best, res.BestPruned)
	}
	if !res.Best.Pruned {
		t.Fatal("salvage Best must itself be a pruned outcome")
	}
}

func TestTunerOnOutcomeAndErrors(t *testing.T) {
	// OnOutcome fires once per case, in traversal order; engine failures
	// propagate out of the run.
	clock := vclock.NewVirtual()
	tuner := NewTuner(clock, quickBudget())
	var seen []string
	tuner.OnOutcome = func(o *bench.Outcome) { seen = append(seen, o.Key) }
	values := []float64{1, 2, 3, 4}
	res, err := tuner.Run(context.Background(), Arrange(makeCases(clock, values), OrderReverse, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(values) {
		t.Fatalf("OnOutcome fired %d times for %d cases", len(seen), len(values))
	}
	for i, o := range res.All {
		if seen[i] != o.Key {
			t.Fatalf("OnOutcome[%d] = %s, traversal order has %s", i, seen[i], o.Key)
		}
	}

	failing := NewTuner(vclock.NewVirtual(), quickBudget())
	if _, err := failing.Run(context.Background(), []bench.Case{&errCase{}, &errCase{}}); err == nil {
		t.Fatal("run must propagate engine failure")
	}
}

// errCase always fails to start an invocation.
type errCase struct{}

func (errCase) Key() string          { return "err" }
func (errCase) Config() bench.Config { return nil }
func (errCase) Describe() string     { return "err" }
func (errCase) Metric() bench.Metric { return bench.MetricFlops }
func (errCase) NewInvocation(int) (bench.Instance, error) {
	return nil, fmt.Errorf("engine failure")
}

func TestTunerCancellation(t *testing.T) {
	clock := vclock.NewVirtual()
	tuner := NewTuner(clock, quickBudget())
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from the first completed outcome: the next evaluation
	// aborts and the run reports the cancellation.
	evaluated := 0
	tuner.OnOutcome = func(*bench.Outcome) {
		evaluated++
		cancel()
	}
	values := make([]float64, 64)
	for i := range values {
		values[i] = float64(i + 1)
	}
	if _, err := tuner.Run(ctx, makeCases(clock, values)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evaluated != 1 {
		t.Fatalf("%d cases finished after cancellation, want 1", evaluated)
	}
	cancel()
}

func TestTunerEmptySpace(t *testing.T) {
	tuner := NewTuner(vclock.NewVirtual(), quickBudget())
	if _, err := tuner.Run(context.Background(), nil); err == nil {
		t.Fatal("empty space must error")
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(102, 100) != 0.02 {
		t.Fatalf("RelativeError = %v", RelativeError(102, 100))
	}
	if RelativeError(0, 0) != 0 {
		t.Fatal("0/0 must be 0")
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Fatal("x/0 must be +Inf")
	}
}

func TestOrderString(t *testing.T) {
	if OrderForward.String() != "forward" || OrderReverse.String() != "reverse" || OrderRandom.String() != "random" {
		t.Fatal("order names")
	}
}
