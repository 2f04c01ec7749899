// Late bloomer: the paper's §VI-C failure mode and its §VII remedy, live.
//
// On the (simulated) 2695v4 — the system whose clock-frequency scaling
// could not be disabled — configurations speed up substantially during
// the first iterations. With the default min_count=2, stop condition 4
// prunes the best configuration while it is still warming up; the paper's
// fix was raising min_count to 100, which costs most of the speedup.
//
// This example compares three runs on the single-socket sweep:
//
//  1. C+Inner with min_count=2     — fast, wrong (the anomaly),
//
//  2. C+Inner with min_count=100   — right, slow (the paper's fix),
//
//  3. C+Inner with min_count=2 + second-chance pass — right AND fast
//     (the future-work remedy implemented in this repository).
//
//     go run ./examples/late-bloomer
package main

import (
	"context"
	"fmt"
	"log"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/experiments"
	"rooftune/internal/hw"
)

func main() {
	sys := hw.IdunE52695v4
	space := core.UnionDGEMMSpace()

	run := func(minCount int, secondChance bool) (float64, core.Dims, float64) {
		eng := bench.NewSimEngine(sys, experiments.DefaultSeed)
		budget := bench.DefaultBudget().WithFlags(true, true, false).WithMinCount(minCount)
		tuner := core.NewTuner(eng.Clock, budget)
		cases := experiments.DGEMMCases(eng, space, 1)

		var res *core.Result
		var err error
		if secondChance {
			var sc *core.SecondChanceResult
			sc, err = tuner.RunWithSecondChance(context.Background(), cases, core.DefaultSecondChance())
			if sc != nil {
				res = sc.Result
			}
		} else {
			res, err = tuner.Run(context.Background(), cases)
		}
		if err != nil {
			log.Fatal(err)
		}
		d, err := experiments.BestDims(res)
		if err != nil {
			log.Fatal(err)
		}
		return res.BestValue() / 1e9, d, res.Elapsed.Seconds()
	}

	fmt.Printf("DGEMM search on the simulated %s, single socket (true optimum: 2000,4096,128 at ~593 GFLOP/s):\n\n", sys.Name)
	v1, d1, t1 := run(2, false)
	fmt.Printf("  C+Inner, min_count=2:             %7.2f GFLOP/s at %v   (%7.2fs virtual)  <- the §VI-C anomaly\n", v1, d1, t1)
	v2, d2, t2 := run(100, false)
	fmt.Printf("  C+Inner, min_count=100:           %7.2f GFLOP/s at %v  (%7.2fs virtual)  <- the paper's fix\n", v2, d2, t2)
	v3, d3, t3 := run(2, true)
	fmt.Printf("  C+Inner, min_count=2 + 2nd chance:%7.2f GFLOP/s at %v  (%7.2fs virtual)  <- §VII remedy\n", v3, d3, t3)

	fmt.Printf("\nThe second-chance pass recovers the min_count=100 answer at %.1fx less cost.\n", t2/t3)
}
