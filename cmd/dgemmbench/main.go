// Command dgemmbench runs the DGEMM benchmark for one configuration —
// the benchmark-program unit that the autotuner's outer invocation loop
// re-executes (paper §III-A). It prints per-invocation means, the
// confidence interval and the stop reason, and exits non-zero on error.
//
// Examples:
//
//	dgemmbench -system 2650v4 -n 1000 -m 4096 -k 128 -sockets 1
//	dgemmbench -native -n 512 -m 512 -k 256 -invocations 3
//	dgemmbench -system 2695v4 -n 2000 -m 4096 -k 128 -confidence -t 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
)

func main() {
	var (
		system      = flag.String("system", "2650v4", "simulated system name")
		native      = flag.Bool("native", false, "run the real Go kernel instead of simulating")
		n           = flag.Int("n", 1000, "rows of A and C")
		m           = flag.Int("m", 1000, "columns of B and C")
		k           = flag.Int("k", 1000, "columns of A / rows of B")
		sockets     = flag.Int("sockets", 1, "socket count (simulated engines)")
		invocations = flag.Int("invocations", 10, "outer-loop repetitions")
		iterations  = flag.Int("iterations", 200, "inner-loop cap (stop condition 2)")
		timeout     = flag.Duration("t", 10*time.Second, "measured-time budget (stop condition 1)")
		errInv      = flag.Float64("error", 100, "inverse CI half-width target (100 -> ±1%)")
		confidence  = flag.Bool("confidence", false, "enable stop condition 3 (CI convergence)")
		seed        = flag.Uint64("seed", 1021, "noise seed (simulated engines)")
		threads     = flag.Int("threads", 0, "native parallelism (default GOMAXPROCS)")
	)
	flag.Parse()

	budget := bench.DefaultBudget()
	budget.Invocations = *invocations
	budget.MaxIterations = *iterations
	budget.MaxTime = *timeout
	budget.ErrorInverse = *errInv
	budget.UseConfidence = *confidence

	if *native {
		eng := bench.NewNativeEngine(*threads)
		run(bench.NewEvaluator(eng.Clock, budget), eng.DGEMMCase(*n, *m, *k))
		return
	}
	sys, err := hw.Get(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgemmbench:", err)
		os.Exit(1)
	}
	eng := bench.NewSimEngine(sys, *seed)
	run(bench.NewEvaluator(eng.Clock, budget), eng.DGEMMCase(*n, *m, *k, *sockets))
}

func run(eval *bench.Evaluator, c bench.Case) {
	out, err := eval.Evaluate(context.Background(), c, bench.NoBest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgemmbench:", err)
		os.Exit(1)
	}
	fmt.Printf("configuration: %s\n", out.Describe)
	for i, inv := range out.Invocations {
		fmt.Printf("  invocation %2d: mean %8.2f GFLOP/s  (n=%3d, measured %8.3fs, stop: %s)\n",
			i, out.Metric.Scale(inv.Mean), inv.Samples, inv.Measured.Seconds(), inv.Reason)
	}
	fmt.Printf("result: %.2f %s over %d invocations, %d samples, %.3fs total\n",
		out.Metric.Scale(out.Mean), out.Metric.Unit(), len(out.Invocations),
		out.TotalSamples, out.Elapsed.Seconds())
	if len(out.Invocations) > 0 {
		last := out.Invocations[len(out.Invocations)-1]
		fmt.Printf("final invocation 99%% CI: [%.2f, %.2f] %s\n",
			out.Metric.Scale(last.CI.Lower), out.Metric.Scale(last.CI.Upper), out.Metric.Unit())
	}
}
