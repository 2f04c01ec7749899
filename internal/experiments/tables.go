package experiments

import (
	"fmt"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/hw"
	"rooftune/internal/report"
	"rooftune/internal/units"
)

// Table1 renders the autotuner configuration (Table I).
func (r *Runner) Table1() *report.Table {
	b := bench.DefaultBudget()
	t := report.NewTable("Table I: Auto-tuner configuration for the experiments",
		"Invocations", "Iterations", "Timeout", "Error")
	t.AddRow(
		fmt.Sprintf("%d", b.Invocations),
		fmt.Sprintf("%d", b.MaxIterations),
		b.MaxTime.String(),
		fmt.Sprintf("%.0f", b.ErrorInverse),
	)
	t.AddNote("Error is the inverse relative CI half-width target: 100 -> ±1% of the mean at 99% confidence.")
	return t
}

// Table2 renders the hardware specifications (Table II).
func (r *Runner) Table2() *report.Table {
	t := report.NewTable("Table II: Hardware specification for the benchmarked systems",
		"System", "FreqCPU", "Cores", "AVXType", "AVXUnits", "FreqD", "ChannelsD", "L3Size", "Sockets")
	for _, s := range r.Systems {
		t.AddRow(
			s.Name,
			fmt.Sprintf("%.1fGHz", s.FreqGHz),
			fmt.Sprintf("%d", s.CoresPerSocket),
			s.Vector.String(),
			fmt.Sprintf("%d", s.FMAUnits),
			fmt.Sprintf("%.0fMHz", s.DRAMFreqMHz),
			fmt.Sprintf("%d", s.DRAMChannels),
			s.L3PerSocket.String(),
			fmt.Sprintf("%d", s.Sockets),
		)
	}
	t.AddNote("AVXUnits for the Broadwell systems is 2, the physically correct value implied by the paper's own Table III peaks (its Table II prints 1).")
	return t
}

// Table3 renders theoretical peaks via Eqs. 9-11 (Table III).
func (r *Runner) Table3() *report.Table {
	t := report.NewTable("Table III: Theoretical maximum DP performance and DRAM bandwidth",
		"System", "Ft", "Bt")
	for _, s := range r.Systems {
		t.AddRow(s.Name,
			fmt.Sprintf("%.1f GFLOP/s", s.TheoreticalFlops(1).GFLOPS()),
			fmt.Sprintf("%.3f GB/s", s.TheoreticalBandwidth(s.Sockets).GBps()),
		)
	}
	t.AddNote("Ft is per socket and Bt per node, matching the paper's own (inconsistent) Table III convention.")
	return t
}

// Table4Data runs the exhaustive Default search for every system and
// returns the per-system runs (shared by Tables IV and V and Fig. 3).
func (r *Runner) Table4Data() ([]*DGEMMRun, error) {
	var runs []*DGEMMRun
	for _, sys := range r.Systems {
		run, err := r.ExhaustiveDefault(sys)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// Table4 renders peak compute performance with utilisation (Table IV).
func Table4(runs []*DGEMMRun) *report.Table {
	t := report.NewTable("Table IV: Peak double-precision compute performance",
		"System", "FS1", "FS2")
	for _, run := range runs {
		ft1 := float64(run.System.TheoreticalFlops(1))
		ft2 := float64(run.System.TheoreticalFlops(run.System.Sockets))
		t.AddRow(run.System.Name,
			fmt.Sprintf("%.2f (%s)", run.S1.Flops.GFLOPS(), units.Percent(float64(run.S1.Flops), ft1)),
			fmt.Sprintf("%.2f (%s)", run.S2.Flops.GFLOPS(), units.Percent(float64(run.S2.Flops), ft2)),
		)
	}
	return t
}

// Table5 renders the winning dimensions (Table V).
func Table5(runs []*DGEMMRun) *report.Table {
	t := report.NewTable("Table V: Dimensions for the corresponding results from Table IV",
		"System", "FS1: n,m,k", "FS2: n,m,k")
	for _, run := range runs {
		t.AddRow(run.System.Name, run.S1.Dims.String(), run.S2.Dims.String())
	}
	return t
}

// Table6Data runs the TRIAD campaign for every system.
func (r *Runner) Table6Data() ([]*TriadRun, error) {
	budget := bench.DefaultBudget().WithFlags(true, true, false)
	var runs []*TriadRun
	for _, sys := range r.Systems {
		run, err := r.RunTriad(sys, budget)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// Table6 renders peak memory bandwidth per subsystem (Table VI).
func Table6(runs []*TriadRun) *report.Table {
	t := report.NewTable("Table VI: Peak memory bandwidth per memory subsystem",
		"System", "B_DRAM,S1", "B_DRAM,S2", "B_L3,S1", "B_L3,S2")
	for _, run := range runs {
		sys := run.System
		bt1 := sys.TheoreticalBandwidth(1).GBps()
		bt2 := sys.TheoreticalBandwidth(sys.Sockets).GBps()
		d1 := run.Peak(1, "DRAM")
		d2 := run.Peak(sys.Sockets, "DRAM")
		t.AddRow(sys.Name,
			fmt.Sprintf("%.2f (%s)", d1, units.Percent(d1, bt1)),
			fmt.Sprintf("%.2f (%s)", d2, units.Percent(d2, bt2)),
			fmt.Sprintf("%.2f", run.Peak(1, "L3")),
			fmt.Sprintf("%.2f", run.Peak(sys.Sockets, "L3")),
		)
	}
	t.AddNote("DRAM percentages exceed 100%: residual L3 hits assist DRAM-resident sweeps, as the paper observes.")
	return t
}

// Table7 renders the hand-tuned iteration counts (Table VII).
func (r *Runner) Table7() *report.Table {
	t := report.NewTable("Table VII: Iteration count for the hand-tuned examples",
		"System", "Iter T", "Iter A")
	for _, sys := range r.Systems {
		ht, ok := core.HandTuned[sys.Name]
		if !ok {
			continue
		}
		t.AddRow(sys.Name, fmt.Sprintf("%d", ht.Time), fmt.Sprintf("%d", ht.Accuracy))
	}
	return t
}

// SystemByName finds a runner system.
func (r *Runner) SystemByName(name string) (hw.System, error) {
	for _, s := range r.Systems {
		if s.Name == name {
			return s, nil
		}
	}
	return hw.System{}, fmt.Errorf("experiments: system %q not in runner", name)
}
