// Command triadbench runs the STREAM TRIAD benchmark for one working-set
// size — the memory-side benchmark program of the paper (§III-B).
//
// Examples:
//
//	triadbench -system 2650v4 -bytes 12MiB -sockets 1
//	triadbench -system "Gold 6148" -bytes 768MiB -sockets 2 -affinity spread
//	triadbench -native -bytes 64MiB
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
	"rooftune/internal/units"
)

func main() {
	var (
		system      = flag.String("system", "2650v4", "simulated system name")
		native      = flag.Bool("native", false, "run the real Go kernel instead of simulating")
		sizeStr     = flag.String("bytes", "12MiB", "total working set (three vectors), e.g. 3KiB, 768MiB")
		affinityStr = flag.String("affinity", "close", "thread placement: close or spread")
		sockets     = flag.Int("sockets", 1, "socket count (simulated engines)")
		invocations = flag.Int("invocations", 10, "outer-loop repetitions")
		iterations  = flag.Int("iterations", 200, "inner-loop cap")
		timeout     = flag.Duration("t", 10*time.Second, "measured-time budget")
		confidence  = flag.Bool("confidence", true, "enable stop condition 3 (CI convergence)")
		seed        = flag.Uint64("seed", 1021, "noise seed (simulated engines)")
		threads     = flag.Int("threads", 0, "native parallelism (default GOMAXPROCS)")
	)
	flag.Parse()

	size, err := units.ParseByteSize(*sizeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "triadbench:", err)
		os.Exit(2)
	}
	elems := int(size / 24)
	if elems < 1 {
		fmt.Fprintln(os.Stderr, "triadbench: working set smaller than one element (24 bytes)")
		os.Exit(2)
	}
	aff := hw.AffinityClose
	if *affinityStr == "spread" {
		aff = hw.AffinitySpread
	} else if *affinityStr != "close" {
		fmt.Fprintf(os.Stderr, "triadbench: unknown affinity %q\n", *affinityStr)
		os.Exit(2)
	}

	budget := bench.DefaultBudget()
	budget.Invocations = *invocations
	budget.MaxIterations = *iterations
	budget.MaxTime = *timeout
	budget.UseConfidence = *confidence

	if *native {
		eng := bench.NewNativeEngine(*threads)
		run(bench.NewEvaluator(eng.Clock, budget), eng.TriadCase(elems))
		return
	}
	sys, err := hw.Get(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, "triadbench:", err)
		os.Exit(1)
	}
	eng := bench.NewSimEngine(sys, *seed)
	run(bench.NewEvaluator(eng.Clock, budget), eng.TriadCase(elems, aff, *sockets))
}

func run(eval *bench.Evaluator, c bench.Case) {
	out, err := eval.Evaluate(context.Background(), c, bench.NoBest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "triadbench:", err)
		os.Exit(1)
	}
	fmt.Printf("configuration: %s\n", out.Describe)
	for i, inv := range out.Invocations {
		fmt.Printf("  invocation %2d: mean %8.2f GB/s  (n=%3d, measured %8.3fs, stop: %s)\n",
			i, out.Metric.Scale(inv.Mean), inv.Samples, inv.Measured.Seconds(), inv.Reason)
	}
	fmt.Printf("result: %.2f %s over %d invocations, %d samples, %.3fs total\n",
		out.Metric.Scale(out.Mean), out.Metric.Unit(), len(out.Invocations),
		out.TotalSamples, out.Elapsed.Seconds())
}
