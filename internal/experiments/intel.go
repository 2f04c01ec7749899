package experiments

import (
	"context"
	"fmt"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
	"rooftune/internal/report"
	"rooftune/internal/units"
)

// IntelComparison reproduces §VI-A: Intel's tuning guide (Hu & Story)
// benchmarked square matrices only and reported m=n=k=1000 as optimal on
// a Silver 4110 at 559.93 GFLOP/s — 52.08% of the single-precision peak
// of Eq. 12. The paper contrasts that with running the same square
// configuration on the Gold 6132 (55.69% of peak) versus its autotuned
// non-square configuration (75.13%).
type IntelComparison struct {
	Silver4110Square    float64 // GFLOP/s, m=n=k=1000 on the 4110 (SP)
	Silver4110Peak      float64 // Eq. 12 SP peak
	Gold6132Square      float64 // GFLOP/s, m=n=k=1000 dual-socket
	Gold6132Peak        float64 // DP dual-socket peak
	Gold6132Autotuned   float64 // GFLOP/s, the Table IV dual-socket result
	Gold6132AutotunedAt string  // the winning dimensions
}

// RunIntelComparison measures the three data points of §VI-A on the
// simulated engines: a square-only evaluation on the Silver 4110, the
// same square configuration on the Gold 6132, and the autotuned optimum
// from the given Table IV run (pass the Gold 6132 entry of Table4Data).
func (r *Runner) RunIntelComparison(gold6132 *DGEMMRun) (*IntelComparison, error) {
	out := &IntelComparison{}

	// Intel's run: square 1000 on the Silver 4110 (single precision).
	silver := hw.Silver4110
	eng := bench.NewSimEngine(silver, r.Seed)
	eval := bench.NewEvaluator(eng.Clock, bench.DefaultBudget())
	o, err := eval.Evaluate(context.Background(), eng.DGEMMCase(1000, 1000, 1000, silver.Sockets), bench.NoBest)
	if err != nil {
		return nil, fmt.Errorf("experiments: Silver 4110 square run: %w", err)
	}
	out.Silver4110Square = o.Mean / 1e9
	out.Silver4110Peak = silver.TheoreticalFlopsSP(silver.Sockets).GFLOPS()

	// The paper's counter-run: square 1000 on the Gold 6132, dual socket.
	if gold6132 == nil {
		return nil, fmt.Errorf("experiments: IntelComparison needs the Gold 6132 Table IV run")
	}
	g := gold6132.System
	eng2 := bench.NewSimEngine(g, r.Seed)
	eval2 := bench.NewEvaluator(eng2.Clock, bench.DefaultBudget())
	o2, err := eval2.Evaluate(context.Background(), eng2.DGEMMCase(1000, 1000, 1000, g.Sockets), bench.NoBest)
	if err != nil {
		return nil, fmt.Errorf("experiments: Gold 6132 square run: %w", err)
	}
	out.Gold6132Square = o2.Mean / 1e9
	out.Gold6132Peak = g.TheoreticalFlops(g.Sockets).GFLOPS()
	out.Gold6132Autotuned = gold6132.S2.Flops.GFLOPS()
	out.Gold6132AutotunedAt = gold6132.S2.Dims.String()
	return out, nil
}

// Render formats the comparison as a table.
func (c *IntelComparison) Render() *report.Table {
	t := report.NewTable("§VI-A: square-only tuning (Intel guide) vs. autotuned non-square",
		"Run", "GFLOP/s", "Peak", "Utilisation")
	t.AddRow("Silver 4110, m=n=k=1000 (SP, Intel's space)",
		fmt.Sprintf("%.2f", c.Silver4110Square),
		fmt.Sprintf("%.1f", c.Silver4110Peak),
		units.Percent(c.Silver4110Square, c.Silver4110Peak))
	t.AddRow("Gold 6132, m=n=k=1000 (DP, dual socket)",
		fmt.Sprintf("%.2f", c.Gold6132Square),
		fmt.Sprintf("%.1f", c.Gold6132Peak),
		units.Percent(c.Gold6132Square, c.Gold6132Peak))
	t.AddRow(fmt.Sprintf("Gold 6132, autotuned (%s)", c.Gold6132AutotunedAt),
		fmt.Sprintf("%.2f", c.Gold6132Autotuned),
		fmt.Sprintf("%.1f", c.Gold6132Peak),
		units.Percent(c.Gold6132Autotuned, c.Gold6132Peak))
	return t
}

// Fig2 renders the benchmarking-process diagram of the paper's Fig. 2 as
// ASCII art: the outer invocation loop, the inner iteration loop, and the
// four stop conditions. The code in internal/bench *is* this diagram; the
// rendering documents the correspondence.
func Fig2() string {
	return `Fig. 2: the autotuning benchmarking process
+--------------------------------------------------------------------+
| autotuner: for each configuration in the (possibly reversed) space |
|                                                                    |
|   +-- invocation loop (outer, default 10x) ---------------------+  |
|   | start benchmark program: init inputs, init matrices,        |  |
|   | pre-heat (one unmeasured kernel call)                       |  |
|   |                                                             |  |
|   |   +-- iteration loop (inner, max 200x) -------------------+ |  |
|   |   | t0 = gettimeofday(); kernel(); t1 = gettimeofday()    | |  |
|   |   | metric = work / (t1 - t0); Welford update (Eqs. 5-7)  | |  |
|   |   | stop 1: accumulated measured time >= timeout          | |  |
|   |   | stop 2: iteration count >= max count                  | |  |
|   |   | stop 3: 99% CI within +-1% of mean        ["C"]       | |  |
|   |   | stop 4: mean + marg < best, count >= min  ["Inner"]   | |  |
|   |   +--------------------------------------------------------+ |  |
|   |                                                             |  |
|   | invocation mean -> outer Welford                            |  |
|   | stop 4 (outer): outer mean + marg < best     ["Outer"]      |  |
|   +-------------------------------------------------------------+  |
|                                                                    |
| configuration mean = mean of invocation means; best = max          |
+--------------------------------------------------------------------+`
}
