// Command rooftool autotunes the DGEMM and TRIAD benchmarks for a target
// system and emits its empirical Roofline model — the end-to-end tool the
// paper describes. Interrupting a run (Ctrl-C) cancels it cleanly between
// kernel executions; -progress streams the tuning live to stderr.
//
// Examples:
//
//	rooftool -system "Gold 6148"              # simulate a paper system
//	rooftool -native -progress                # tune the host, live output
//	rooftool -system 2650v4 -format svg -out roofline.svg
//	rooftool -workloads dgemm                 # compute roof only
//	rooftool -workloads spmv,stencil          # §VII kernels between TRIAD and DGEMM
//	rooftool -triad-levels L1,L2,L3,DRAM -chain  # cache-aware roofline, chained sweeps
//	rooftool -remote http://localhost:8080    # run the campaign on a roofserved daemon
//	rooftool -list                            # list known systems
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"rooftune"
	"rooftune/internal/hw"
	servev1 "rooftune/serve/v1"
)

func main() {
	var (
		system  = flag.String("system", "Gold 6148", "simulated system name (see -list)")
		native  = flag.Bool("native", false, "tune the host with real Go kernels instead of simulating")
		seed    = flag.Uint64("seed", 1021, "noise seed for simulated engines")
		format  = flag.String("format", "text", "output format: text, ascii, svg, gnuplot, summary, json")
		out     = flag.String("out", "", "output file (default stdout)")
		threads = flag.Int("threads", 0, "native parallelism (default GOMAXPROCS)")
		levels  = flag.String("triad-levels", "", "comma-separated TRIAD residency regions to sweep (simulated targets only; e.g. L1,L2,L3,DRAM; default L3,DRAM)")
		chain   = flag.Bool("chain", false, "chain same-metric sweeps: pre-seed each sweep's incumbent with its dependency's winner")
		// The usage text asks the registry rather than hand-maintaining a
		// list: a newly registered workload shows up here on its own.
		workloads = flag.String("workloads", "", fmt.Sprintf(
			"comma-separated workloads to run (default: dgemm,triad; registered: %s)",
			strings.Join(rooftune.WorkloadNames(), ",")))
		progress = flag.Bool("progress", false, "stream live tuning progress to stderr")
		remote   = flag.String("remote", "", "roofserved daemon URL: run the campaign there instead of in-process (simulated targets only)")
		list     = flag.Bool("list", false, "list known systems and workloads, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("known systems:  ", strings.Join(hw.Known(), ", "))
		fmt.Println("known workloads:", strings.Join(rooftune.WorkloadNames(), ", "))
		return
	}

	levelNames := splitList(*levels)
	workloadNames := splitList(*workloads)

	// Ctrl-C cancels the run between kernel executions instead of killing
	// the process mid-measurement.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var res *rooftune.Result
	var err error
	if *remote != "" {
		// The daemon serves deterministic simulated campaigns only —
		// flags that contradict that contract fail loudly instead of
		// silently meaning something else.
		if *native {
			fmt.Fprintln(os.Stderr, "rooftool: -native cannot be combined with -remote: the daemon serves simulated campaigns only")
			os.Exit(2)
		}
		if *threads != 0 {
			fmt.Fprintln(os.Stderr, "rooftool: -threads is native-only and cannot be combined with -remote")
			os.Exit(2)
		}
		res, err = runRemote(ctx, *remote, servev1.Campaign{
			System:      *system,
			Workloads:   workloadNames,
			Seed:        *seed,
			TriadLevels: levelNames,
			Chain:       *chain,
		}, *progress)
	} else {
		opts := []rooftune.Option{
			rooftune.WithSeed(*seed), rooftune.WithThreads(*threads),
			rooftune.WithSweepChaining(*chain),
		}
		if len(levelNames) > 0 {
			opts = append(opts, rooftune.WithTriadLevels(levelNames...))
		}
		if *native {
			opts = append(opts, rooftune.WithNative())
		} else {
			opts = append(opts, rooftune.WithSystem(*system))
		}
		if len(workloadNames) > 0 {
			opts = append(opts, rooftune.WithWorkloads(workloadNames...))
		}
		if *progress {
			opts = append(opts, rooftune.WithProgress(printEvent))
		}

		var sess *rooftune.Session
		sess, err = rooftune.New(opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rooftool:", err)
			os.Exit(1)
		}
		res, err = sess.Run(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rooftool:", err)
		os.Exit(1)
	}
	// Empty-region warnings also arrived as events; repeat them here so
	// they are visible without -progress.
	if !*progress {
		for _, w := range res.Warnings {
			fmt.Fprintln(os.Stderr, "rooftool: warning:", w)
		}
	}

	var rendered string
	switch *format {
	case "text":
		rendered = res.Summary() + "\n" + res.Roofline.RenderASCII(76, 20)
	case "ascii":
		rendered = res.Roofline.RenderASCII(76, 20)
	case "svg":
		rendered = res.Roofline.RenderSVG(800, 560)
	case "gnuplot":
		rendered = res.Roofline.RenderGnuplot()
	case "summary":
		rendered = res.Roofline.Summary()
	case "json":
		b, jerr := res.Roofline.MarshalJSON()
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "rooftool:", jerr)
			os.Exit(1)
		}
		rendered = string(b) + "\n"
	default:
		fmt.Fprintf(os.Stderr, "rooftool: unknown format %q\n", *format)
		os.Exit(2)
	}

	if *out == "" {
		fmt.Print(rendered)
		return
	}
	if err := os.WriteFile(*out, []byte(rendered), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "rooftool:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(rendered))
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var names []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// printEvent renders one live progress event as a stderr line.
func printEvent(ev rooftune.Event) {
	switch ev.Kind {
	case rooftune.EventSweepStarted:
		fmt.Fprintf(os.Stderr, "[start] %s: %d cases\n", ev.Sweep, ev.Cases)
	case rooftune.EventCaseEvaluated:
		pruned := ""
		if ev.Pruned {
			pruned = "  (outer-pruned)"
		}
		fmt.Fprintf(os.Stderr, "[case ] %s: %s -> %.2f %s%s\n", ev.Sweep, ev.Case, ev.Value, ev.Unit, pruned)
	case rooftune.EventSweepWon:
		fmt.Fprintf(os.Stderr, "[won  ] %s: %s -> %.2f %s  (search %.2fs)\n",
			ev.Sweep, ev.Case, ev.Value, ev.Unit, ev.Elapsed.Seconds())
	case rooftune.EventRegionEmpty:
		fmt.Fprintf(os.Stderr, "[warn ] %s\n", ev.Warning)
	case rooftune.EventSweepSeeded:
		fmt.Fprintf(os.Stderr, "[seed ] %s: incumbent %.2f %s from %s\n", ev.Sweep, ev.Value, ev.Unit, ev.From)
	}
}
