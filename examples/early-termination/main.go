// Early termination: the paper's core methodological result, live. Runs
// the DGEMM search on the 2650v4 under four evaluation techniques and
// shows that the confidence-interval optimisations cut search time by one
// to two orders of magnitude while changing the answer by well under 2%.
//
//	go run ./examples/early-termination
package main

import (
	"fmt"
	"log"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/experiments"
)

func main() {
	r := experiments.New()
	sys, err := r.SystemByName("2650v4")
	if err != nil {
		log.Fatal(err)
	}

	techniques := []core.Technique{
		{Name: "Default (fixed samples)", Budget: bench.DefaultBudget(), Order: core.OrderForward},
		{Name: "Confidence (stop 3)", Budget: bench.DefaultBudget().WithFlags(true, false, false), Order: core.OrderForward},
		{Name: "C+Inner (stop 3+4)", Budget: bench.DefaultBudget().WithFlags(true, true, false), Order: core.OrderForward},
		{Name: "C+Inner+Outer", Budget: bench.DefaultBudget().WithFlags(true, true, true), Order: core.OrderForward},
	}

	fmt.Println("DGEMM autotuning on the simulated 2650v4 (single + dual socket sweeps):")
	var baseline float64
	var baseTime float64
	for i, tech := range techniques {
		run, err := r.RunDGEMMTechnique(sys, tech)
		if err != nil {
			log.Fatal(err)
		}
		fs1 := float64(run.S1.Flops)
		if i == 0 {
			baseline = fs1
			baseTime = run.Total.Seconds()
		}
		errPct := 100 * core.RelativeError(fs1, baseline)
		fmt.Printf("  %-26s FS1 %7.2f GFLOP/s (err %.2f%%)  at %v  search %8.2fs  speedup %6.2fx\n",
			tech.Name, run.S1.Flops.GFLOPS(), errPct, run.S1.Dims,
			run.Total.Seconds(), baseTime/run.Total.Seconds())
	}
	fmt.Println("\nEvery adaptive technique finds the same optimum within 2% — the")
	fmt.Println("paper's headline claim — at a fraction of the measurement cost.")
}
