package bench

import (
	"context"
	"testing"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/vclock"
)

// The BenchmarkEvaluate family pins the evaluator's harness overhead:
// ns/op for the fixed-shape evaluation below and — via b.ReportAllocs —
// allocs/op, the runtime counterpart of the noalloc analyzer. CI diffs
// both against the committed BENCH_main.json baseline, so an allocation
// creeping into the invocation/iteration loops fails the bench job even
// if it slips past the static pattern check. The scripted case runs on
// a virtual clock: every run measures exactly Invocations x
// MaxIterations scripted steps, so the counters are stable.

// benchEvaluateBudget is a deterministic evaluation shape: statistical
// stops off, so every invocation runs its full iteration count.
func benchEvaluateBudget(steady bool) Budget {
	b := DefaultBudget()
	b.Invocations = 10
	b.MaxIterations = 100
	b.UseSteadyState = steady
	return b
}

func benchmarkEvaluate(b *testing.B, budget Budget) {
	clock := vclock.NewVirtual()
	e := NewEvaluator(clock, budget)
	c := constantCase(clock, time.Millisecond)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(ctx, c, NoBest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	benchmarkEvaluate(b, benchEvaluateBudget(false))
}

func BenchmarkEvaluateSteadyState(b *testing.B) {
	benchmarkEvaluate(b, benchEvaluateBudget(true))
}

// BenchmarkEvaluatePruned exercises the bound-pruned path: an incumbent
// far above the case's performance stops every invocation at MinCount
// iterations and outer-prunes the configuration.
func BenchmarkEvaluatePruned(b *testing.B) {
	budget := benchEvaluateBudget(false)
	budget.UseInnerBound = true
	budget.UseOuterBound = true
	clock := vclock.NewVirtual()
	e := NewEvaluator(clock, budget)
	c := constantCase(clock, time.Millisecond)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(ctx, c, 1e15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateSharedCtx runs evaluations in parallel under one
// shared cancelable context, each goroutine with its own clock and
// evaluator: the shape of concurrently running sweeps. A per-Step check
// that locks the shared context shows up here as contention.
func BenchmarkEvaluateSharedCtx(b *testing.B) {
	budget := benchEvaluateBudget(false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		clock := vclock.NewVirtual()
		e := NewEvaluator(clock, budget)
		c := constantCase(clock, time.Millisecond)
		for pb.Next() {
			if _, err := e.Evaluate(ctx, c, NoBest); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEvaluateSim times the evaluator on a real simulated case, a
// Gold 6148 DGEMM configuration evaluated again every op: ns/sample is
// the whole cost of one measured sample (stream, virtual clock,
// statistics and stop tests, plus the evaluation's share of setup) and
// allocs/op the allocations of one evaluation. "fixed" runs Table I's
// fixed-sample budget; "cio" Confidence+Inner+Outer against an
// incumbent at the case's own mean, so stop condition 4 is tested on
// every sample and ends some invocations early.
func BenchmarkEvaluateSim(b *testing.B) {
	ctx := context.Background()
	mk := func() (*SimEngine, Case) {
		eng := NewSimEngine(hw.IdunGold6148, 1021)
		return eng, eng.DGEMMCase(1000, 4096, 128, 1)
	}
	fixed := DefaultBudget()
	eng, c := mk()
	probe, err := NewEvaluator(eng.Clock, fixed).Evaluate(ctx, c, NoBest)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		budget Budget
		best   float64
	}{
		{"fixed", fixed, NoBest},
		{"cio", fixed.WithFlags(true, true, true), probe.Mean},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng, c := mk()
			e := NewEvaluator(eng.Clock, bc.budget)
			samples := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := e.Evaluate(ctx, c, bc.best)
				if err != nil {
					b.Fatal(err)
				}
				samples += out.TotalSamples
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
		})
	}
}
