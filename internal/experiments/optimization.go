package experiments

import (
	"fmt"
	"time"

	"rooftune/internal/core"
	"rooftune/internal/report"
)

// OptRow is one row of an optimisation-comparison table (Tables VIII-XI):
// the technique's found peaks, its total search time, and its speedup
// over the Default technique.
type OptRow struct {
	Technique string
	FS1, FS2  float64 // GFLOP/s
	Time      time.Duration
	Speedup   float64
	// S1Dims/S2Dims record which configuration each sweep selected, used
	// to verify that optimised techniques find the Default's optimum.
	S1Dims, S2Dims core.Dims
}

// OptTable is a full optimisation-comparison table for one system.
type OptTable struct {
	System string
	Rows   []OptRow
	// MinCountRows is the extra block the paper adds for the 2695v4:
	// the stop-condition-4 techniques re-run with min_count=100.
	MinCountRows []OptRow
}

// OptimizationTable reproduces the system's Tables VIII-XI row set. For
// the 2695v4 it also fills MinCountRows (the paper's min_count=100
// block). The Default row always runs first: its time is the speedup
// denominator and its result the accuracy reference.
func (r *Runner) OptimizationTable(sys string) (*OptTable, error) {
	system, err := r.SystemByName(sys)
	if err != nil {
		return nil, err
	}
	out := &OptTable{System: sys}
	var defaultTime time.Duration

	for _, tech := range core.Techniques(sys, 2) {
		run, err := r.RunDGEMMTechnique(system, tech)
		if err != nil {
			return nil, err
		}
		row := makeOptRow(run, tech.Name, defaultTime)
		if tech.Name == "Default" {
			defaultTime = run.Total
			row.Speedup = 1
		}
		out.Rows = append(out.Rows, row)
	}

	if sys == "2695v4" {
		for _, name := range []string{"C+Inner", "C+Inner+R", "C+I+Outer", "C+I+O+R"} {
			tech, ok := core.TechniqueByName(sys, name, 100)
			if !ok {
				return nil, fmt.Errorf("experiments: unknown technique %q", name)
			}
			run, err := r.RunDGEMMTechnique(system, tech)
			if err != nil {
				return nil, err
			}
			out.MinCountRows = append(out.MinCountRows, makeOptRow(run, name+" (min100)", defaultTime))
		}
	}
	return out, nil
}

func makeOptRow(run *DGEMMRun, name string, defaultTime time.Duration) OptRow {
	row := OptRow{
		Technique: name,
		FS1:       run.S1.Flops.GFLOPS(),
		FS2:       run.S2.Flops.GFLOPS(),
		Time:      run.Total,
		S1Dims:    run.S1.Dims,
		S2Dims:    run.S2.Dims,
	}
	if defaultTime > 0 {
		row.Speedup = defaultTime.Seconds() / run.Total.Seconds()
	}
	return row
}

// Render formats the table in the paper's layout.
func (t *OptTable) Render(tableNumber string) *report.Table {
	rt := report.NewTable(
		fmt.Sprintf("Table %s: Comparison of evaluation optimizations for %s", tableNumber, t.System),
		"Technique", "FS1 Perf", "FS2 Perf", "Time", "Speedup")
	add := func(rows []OptRow) {
		for _, row := range rows {
			rt.AddRow(row.Technique,
				fmt.Sprintf("%.2f", row.FS1),
				fmt.Sprintf("%.2f", row.FS2),
				fmt.Sprintf("%.2fs", row.Time.Seconds()),
				fmt.Sprintf("%.2fx", row.Speedup),
			)
		}
	}
	add(t.Rows)
	if len(t.MinCountRows) > 0 {
		rt.AddNote("Rows below use minimum count=100 for stop condition 4 (see §III-C).")
		add(t.MinCountRows)
	}
	return rt
}

// OptTableNumbers maps system name to the paper's table numbering.
var OptTableNumbers = map[string]string{
	"2650v4":    "VIII",
	"2695v4":    "IX",
	"Gold 6132": "X",
	"Gold 6148": "XI",
}
