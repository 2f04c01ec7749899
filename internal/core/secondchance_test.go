package core

import (
	"context"
	"testing"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/vclock"
)

// bloomerCase ramps slowly toward a steady value, so the inner bound
// truncates it against a strong incumbent; its steady value is higher
// than the incumbent's.
type bloomerCase struct {
	id      int
	clock   *vclock.Virtual
	steady  time.Duration // duration once warmed up
	rampLen int
}

func (c *bloomerCase) Key() string          { return "bloomer" }
func (c *bloomerCase) Config() bench.Config { return nil }
func (c *bloomerCase) Describe() string     { return "bloomer" }
func (c *bloomerCase) Metric() bench.Metric { return bench.MetricFlops }

func (c *bloomerCase) NewInvocation(inv int) (bench.Instance, error) {
	return &bloomerInstance{c: c}, nil
}

type bloomerInstance struct {
	c *bloomerCase
	i int
}

func (bi *bloomerInstance) Warmup() {}
func (bi *bloomerInstance) Step() time.Duration {
	frac := float64(bi.i) / float64(bi.c.rampLen)
	if frac > 1 {
		frac = 1
	}
	// Starts 30% slower, converges to steady — slow enough to be
	// truncated by the bound, close enough to pass the margin filter.
	d := time.Duration(float64(bi.c.steady) * (1.3 - 0.3*frac))
	bi.i++
	bi.c.clock.Advance(d)
	return d
}
func (bi *bloomerInstance) Work() float64 { return 1e9 }
func (bi *bloomerInstance) Close()        {}

func TestSecondChancePromotesLateBloomer(t *testing.T) {
	clock := vclock.NewVirtual()
	// Incumbent: constant 1.1ms -> metric ~9.09e11.
	incumbent := &valueCase{id: 0, value: 9.09e11, clock: clock, cost: 1100 * time.Microsecond}
	// Late bloomer: steady 1.0ms -> metric 1e12 (better), but ramps over
	// 60 iterations and gets truncated by the bound.
	bloomer := &bloomerCase{id: 1, clock: clock, steady: time.Millisecond, rampLen: 20}

	budget := bench.DefaultBudget().WithFlags(true, true, false)
	budget.Invocations = 3
	budget.MaxIterations = 100
	tuner := NewTuner(clock, budget)

	// Plain run: the bloomer's truncated mean loses.
	plain, err := tuner.Run(context.Background(), []bench.Case{incumbent, bloomer})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Best.Key != "case-0" {
		t.Skipf("scenario did not truncate the bloomer (best=%s); model changed", plain.Best.Key)
	}

	// Second chance: the bloomer is revisited with a conservative budget
	// and promoted.
	clock2 := vclock.NewVirtual()
	incumbent2 := &valueCase{id: 0, value: 9.09e11, clock: clock2, cost: 1100 * time.Microsecond}
	bloomer2 := &bloomerCase{id: 1, clock: clock2, steady: time.Millisecond, rampLen: 20}
	tuner2 := NewTuner(clock2, budget)
	sc := DefaultSecondChance()
	sc.Budget.Invocations = 2
	res, err := tuner2.RunWithSecondChance(context.Background(), []bench.Case{incumbent2, bloomer2}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("second chance did not promote the late bloomer: best=%s mean=%.3g",
			res.Best.Key, res.Best.Mean)
	}
	if res.Best.Key != "bloomer" {
		t.Fatalf("best = %s", res.Best.Key)
	}
	if len(res.Revisited) == 0 {
		t.Fatal("revisited list empty")
	}
	if res.Elapsed <= plain.Elapsed {
		t.Fatal("second pass must add search time")
	}
}

func TestSecondChanceNoCandidates(t *testing.T) {
	clock := vclock.NewVirtual()
	cases := makeCases(clock, []float64{1, 5, 3})
	budget := quickBudget() // no bounds: nothing pruned, no candidates
	tuner := NewTuner(clock, budget)
	res, err := tuner.RunWithSecondChance(context.Background(), cases, DefaultSecondChance())
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted || len(res.Revisited) != 0 {
		t.Fatalf("nothing should be revisited: %+v", res.Revisited)
	}
	if res.Best.Key != "case-1" {
		t.Fatalf("best = %s", res.Best.Key)
	}
}

func TestSecondChanceMarginFilters(t *testing.T) {
	clock := vclock.NewVirtual()
	// Strong incumbent first, then far-below cases that get outer-pruned;
	// with a tight margin none qualify for a second chance.
	values := []float64{100, 10, 20}
	b := quickBudget()
	b.Invocations = 6
	b.UseOuterBound = true
	tuner := NewTuner(clock, b)
	sc := SecondChance{Margin: 0.05, Budget: quickBudget()}
	res, err := tuner.RunWithSecondChance(context.Background(), makeCases(clock, values), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Revisited) != 0 {
		t.Fatalf("margin filter failed: revisited %d", len(res.Revisited))
	}
	// With a huge margin they all qualify (but none promote).
	clock2 := vclock.NewVirtual()
	tuner2 := NewTuner(clock2, b)
	sc2 := SecondChance{Margin: 0.999, Budget: quickBudget()}
	res2, err := tuner2.RunWithSecondChance(context.Background(), makeCases(clock2, values), sc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Revisited) != 2 {
		t.Fatalf("wide margin should revisit both pruned cases: %d", len(res2.Revisited))
	}
	if res2.Promoted {
		t.Fatal("inferior cases must not be promoted")
	}
}
