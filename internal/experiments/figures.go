package experiments

import (
	"context"
	"fmt"
	"sort"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/report"
	"rooftune/internal/roofline"
	"rooftune/internal/units"
)

// Fig1 builds the example roofline of the paper's Fig. 1: four memory
// subsystems (single/dual-socket DRAM and L3) and two compute
// configurations (single/dual-socket DGEMM peak) for one system. It uses
// measured results when runs are supplied, falling back to theoretical
// ceilings otherwise.
func Fig1(dgemm *DGEMMRun, triad *TriadRun) (*roofline.Model, error) {
	if dgemm == nil || triad == nil {
		return nil, fmt.Errorf("experiments: Fig1 needs both DGEMM and TRIAD runs")
	}
	sys := dgemm.System
	m := &roofline.Model{Title: fmt.Sprintf("Roofline model: %s (measured)", sys.Name)}
	m.AddMemory("DRAM, 1 socket", bwOf(triad, 1, "DRAM"))
	m.AddMemory("L3 cache, 1 socket", bwOf(triad, 1, "L3"))
	if sys.Sockets > 1 {
		m.AddMemory(fmt.Sprintf("DRAM, %d sockets", sys.Sockets), bwOf(triad, sys.Sockets, "DRAM"))
		m.AddMemory(fmt.Sprintf("L3 cache, %d sockets", sys.Sockets), bwOf(triad, sys.Sockets, "L3"))
	}
	m.AddCompute("DGEMM peak, 1 socket", dgemm.S1.Flops)
	if sys.Sockets > 1 {
		m.AddCompute(fmt.Sprintf("DGEMM peak, %d sockets", sys.Sockets), dgemm.S2.Flops)
	}
	// Application points: TRIAD at I = 1/12, DGEMM at its (high) intensity.
	m.AddPoint("TRIAD", 1.0/12, flopsFromBandwidth(bwOf(triad, sys.Sockets, "DRAM")))
	d := dgemm.S2.Dims
	m.AddPoint("DGEMM", units.DGEMMIntensity(d.N, d.M, d.K), dgemm.S2.Flops)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Fig3 builds the grouped bar chart of DGEMM achieved vs. theoretical
// performance for all systems (Fig. 3).
func Fig3(runs []*DGEMMRun) *report.Figure {
	f := report.NewFigure("Fig. 3: DGEMM compute performance vs. theoretical maximum",
		"System", "GFLOP/s")
	var labels []string
	var m1, t1, m2, t2 []float64
	for _, run := range runs {
		labels = append(labels, run.System.Name)
		m1 = append(m1, run.S1.Flops.GFLOPS())
		t1 = append(t1, run.System.TheoreticalFlops(1).GFLOPS())
		m2 = append(m2, run.S2.Flops.GFLOPS())
		t2 = append(t2, run.System.TheoreticalFlops(run.System.Sockets).GFLOPS())
	}
	f.Add(report.Series{Name: "measured S1", Labels: labels, Y: m1})
	f.Add(report.Series{Name: "theoretical S1", Labels: labels, Y: t1})
	f.Add(report.Series{Name: "measured S2", Labels: labels, Y: m2})
	f.Add(report.Series{Name: "theoretical S2", Labels: labels, Y: t2})
	return f
}

// Fig4 builds the TRIAD counterpart (Fig. 4): measured vs. theoretical
// DRAM bandwidth plus measured L3 bandwidth.
func Fig4(runs []*TriadRun) *report.Figure {
	f := report.NewFigure("Fig. 4: TRIAD memory performance vs. theoretical maximum",
		"System", "GB/s")
	var labels []string
	var d1, t1, d2, t2, l1, l2 []float64
	for _, run := range runs {
		sys := run.System
		labels = append(labels, sys.Name)
		d1 = append(d1, run.Peak(1, "DRAM"))
		t1 = append(t1, sys.TheoreticalBandwidth(1).GBps())
		d2 = append(d2, run.Peak(sys.Sockets, "DRAM"))
		t2 = append(t2, sys.TheoreticalBandwidth(sys.Sockets).GBps())
		l1 = append(l1, run.Peak(1, "L3"))
		l2 = append(l2, run.Peak(sys.Sockets, "L3"))
	}
	f.Add(report.Series{Name: "DRAM S1", Labels: labels, Y: d1})
	f.Add(report.Series{Name: "theoretical S1", Labels: labels, Y: t1})
	f.Add(report.Series{Name: "DRAM S2", Labels: labels, Y: d2})
	f.Add(report.Series{Name: "theoretical S2", Labels: labels, Y: t2})
	f.Add(report.Series{Name: "L3 S1", Labels: labels, Y: l1})
	f.Add(report.Series{Name: "L3 S2", Labels: labels, Y: l2})
	return f
}

// Fig5 builds the speedup-over-default bar chart across systems and
// techniques (Fig. 5).
func Fig5(tables []*OptTable) *report.Figure {
	f := report.NewFigure("Fig. 5: Search-time speedup over Default per technique",
		"Technique", "speedup (x)")
	techniques := []string{"Hand-tuned Time", "Hand-tuned Accuracy", "Single",
		"Confidence", "C+Inner", "C+Inner+R", "C+I+Outer", "C+I+O+R"}
	for _, t := range tables {
		ys := make([]float64, len(techniques))
		for i, name := range techniques {
			for _, row := range t.Rows {
				if row.Technique == name {
					ys[i] = row.Speedup
				}
			}
		}
		f.Add(report.Series{Name: t.System, Labels: techniques, Y: ys})
	}
	return f
}

// Fig6Point is one configuration of the Fig. 6 sweep.
type Fig6Point struct {
	Dims        core.Dims
	Work        float64 // FLOPs of one execution
	SecPerIter  float64 // mean measured time per iteration
	GFLOPS      float64 // mean performance
	TotalSec    float64 // total evaluation cost of the configuration
	Pruned      bool
	SampleCount int
}

// Fig6Data sweeps one system (single socket) with the Default budget and
// records per-configuration iteration time and performance, ordered by
// configuration size — the data behind Fig. 6 ("time spent on each
// iteration and performance as a function of matrix sizes").
func (r *Runner) Fig6Data(sysName string) ([]Fig6Point, error) {
	system, err := r.SystemByName(sysName)
	if err != nil {
		return nil, err
	}
	// A single invocation suffices for the shape; the figure is about the
	// cost/performance landscape, not about statistics.
	budget := bench.DefaultBudget()
	budget.Invocations = 1
	budget.MaxIterations = 20

	eng := bench.NewSimEngine(system, r.Seed)
	tuner := core.NewTuner(eng.Clock, budget)
	res, err := tuner.Run(context.Background(), DGEMMCases(eng, r.Space, 1))
	if err != nil {
		return nil, err
	}
	points := make([]Fig6Point, 0, len(res.All))
	for i, out := range res.All {
		d := r.Space[i]
		var measured float64
		var samples int
		for _, inv := range out.Invocations {
			measured += inv.Measured.Seconds()
			samples += inv.Samples
		}
		p := Fig6Point{
			Dims:        d,
			Work:        d.Flops(),
			GFLOPS:      out.Mean / 1e9,
			TotalSec:    out.Elapsed.Seconds(),
			Pruned:      out.Pruned,
			SampleCount: samples,
		}
		if samples > 0 {
			p.SecPerIter = measured / float64(samples)
		}
		points = append(points, p)
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Work < points[j].Work })
	return points, nil
}

// Fig6 renders the sweep as a two-series figure over configuration size.
func Fig6(points []Fig6Point) *report.Figure {
	f := report.NewFigure("Fig. 6: per-iteration time and performance vs. matrix size",
		"work (FLOPs)", "seconds / GFLOP/s")
	f.LogX = true
	var xs, times, perfs []float64
	for _, p := range points {
		xs = append(xs, p.Work)
		times = append(times, p.SecPerIter)
		perfs = append(perfs, p.GFLOPS)
	}
	f.Add(report.Series{Name: "sec/iteration", X: xs, Y: times})
	f.Add(report.Series{Name: "GFLOP/s", X: xs, Y: perfs})
	return f
}
