package experiments

import (
	"math"
	"strings"
	"testing"

	"rooftune/internal/core"
)

// The tests in this file assert the paper-reproduction claims end to end:
// full searches through the real tuner against the calibrated engines.
// They are the repository's acceptance suite.

func TestTable4And5Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhaustive searches")
	}
	r := New()
	runs, err := r.Table4Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("%d systems", len(runs))
	}
	for _, run := range runs {
		name := run.System.Name
		paper4 := PaperTable4[name]
		paper5 := PaperTable5[name]

		// Peaks within 1.5% of Table IV.
		fs1 := run.S1.Flops.GFLOPS()
		fs2 := run.S2.Flops.GFLOPS()
		if math.Abs(fs1-paper4.FS1)/paper4.FS1 > 0.015 {
			t.Errorf("%s FS1 = %.2f, paper %.2f", name, fs1, paper4.FS1)
		}
		if math.Abs(fs2-paper4.FS2)/paper4.FS2 > 0.02 {
			t.Errorf("%s FS2 = %.2f, paper %.2f", name, fs2, paper4.FS2)
		}

		// Exact winning dimensions of Table V.
		d1, d2 := run.S1.Dims, run.S2.Dims
		if d1 != paper5.S1 {
			t.Errorf("%s S1 dims = %v, paper %v", name, d1, paper5.S1)
		}
		if d2 != paper5.S2 {
			t.Errorf("%s S2 dims = %v, paper %v", name, d2, paper5.S2)
		}

		// The paper's qualitative findings.
		ft1 := run.System.TheoreticalFlops(1).GFLOPS()
		ft2 := run.System.TheoreticalFlops(run.System.Sockets).GFLOPS()
		if fs1/ft1 <= fs2/ft2 {
			t.Errorf("%s: single-socket utilisation must exceed dual-socket", name)
		}
	}
	// AVX2-era systems show higher utilisation than AVX-512 ones (§VI-A).
	util := func(i int) float64 {
		return float64(runs[i].S1.Flops) / float64(runs[i].System.TheoreticalFlops(1))
	}
	if !(util(0) > util(2) && util(1) > util(2) && util(0) > util(3)) {
		t.Error("AVX2 systems must utilise better than AVX-512 systems")
	}
}

func TestTable6Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full TRIAD campaigns")
	}
	r := New()
	runs, err := r.Table6Data()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		name := run.System.Name
		paper := PaperTable6[name]
		check := func(label string, got, want, tol float64) {
			if math.Abs(got-want)/want > tol {
				t.Errorf("%s %s = %.2f GB/s, paper %.2f", name, label, got, want)
			}
		}
		check("DRAM S1", run.Peak(1, "DRAM"), paper.DramS1, 0.02)
		check("DRAM S2", run.Peak(run.System.Sockets, "DRAM"), paper.DramS2, 0.02)
		// L3 means include loop overhead and warm-up: 3% tolerance.
		check("L3 S1", run.Peak(1, "L3"), paper.L3S1, 0.03)
		check("L3 S2", run.Peak(run.System.Sockets, "L3"), paper.L3S2, 0.03)

		// The paper's headline: measured DRAM beats theoretical.
		if run.Peak(1, "DRAM") <= run.System.TheoreticalBandwidth(1).GBps()*0.99 {
			t.Errorf("%s: DRAM S1 should be at or above theoretical", name)
		}
	}
}

func TestOptimizationTableStableSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("nine full searches")
	}
	r := New()
	tbl, err := r.OptimizationTable("Gold 6148")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]OptRow{}
	for _, row := range tbl.Rows {
		rows[row.Technique] = row
	}
	def := rows["Default"]
	paper5 := PaperTable5["Gold 6148"]

	// Every CI-based technique matches Default within the paper's 2%
	// and finds the exact optimum configuration.
	for _, name := range []string{"Confidence", "C+Inner", "C+Inner+R", "C+I+Outer", "C+I+O+R"} {
		row := rows[name]
		if e := core.RelativeError(row.FS1, def.FS1); e > 0.02 {
			t.Errorf("%s FS1 error %.3f > 2%%", name, e)
		}
		if e := core.RelativeError(row.FS2, def.FS2); e > 0.02 {
			t.Errorf("%s FS2 error %.3f > 2%%", name, e)
		}
		if row.S1Dims != paper5.S1 || row.S2Dims != paper5.S2 {
			t.Errorf("%s found %v/%v, want %v/%v", name, row.S1Dims, row.S2Dims, paper5.S1, paper5.S2)
		}
		if row.Speedup <= 1 {
			t.Errorf("%s speedup %.2f must exceed 1", name, row.Speedup)
		}
	}

	// Speedup ordering of the paper: C < C+I < C+I+O, reversal slower.
	if !(rows["Confidence"].Speedup < rows["C+Inner"].Speedup &&
		rows["C+Inner"].Speedup < rows["C+I+Outer"].Speedup) {
		t.Errorf("speedup ordering violated: C %.1f, C+I %.1f, C+I+O %.1f",
			rows["Confidence"].Speedup, rows["C+Inner"].Speedup, rows["C+I+Outer"].Speedup)
	}
	if rows["C+Inner+R"].Speedup >= rows["C+Inner"].Speedup {
		t.Error("reversal must slow C+Inner down")
	}
	if rows["C+I+O+R"].Speedup >= rows["C+I+Outer"].Speedup {
		t.Error("reversal must slow C+I+Outer down")
	}
	// Single is fast but inaccurate relative to the adaptive techniques.
	if rows["Single"].Speedup < rows["C+I+Outer"].Speedup {
		t.Error("Single must be the fastest")
	}
}

func TestMinCountAnomaly2695v4(t *testing.T) {
	if testing.Short() {
		t.Skip("thirteen full searches")
	}
	r := New()
	tbl, err := r.OptimizationTable("2695v4")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]OptRow{}
	for _, row := range append(append([]OptRow{}, tbl.Rows...), tbl.MinCountRows...) {
		rows[row.Technique] = row
	}
	def := rows["Default"]
	paper5 := PaperTable5["2695v4"]

	// §VI-C: with min_count=2, the Inner-bound techniques degrade on
	// this noisy system (the paper's C+Inner lost 21% on FS1).
	deg := core.RelativeError(rows["C+Inner"].FS1, def.FS1)
	if deg < 0.02 {
		t.Errorf("anomaly missing: C+Inner FS1 within %.3f of Default", deg)
	}

	// With min_count=100 every technique recovers the exact optimum
	// within 2% (the paper's remedy).
	for _, name := range []string{"C+Inner (min100)", "C+Inner+R (min100)",
		"C+I+Outer (min100)", "C+I+O+R (min100)"} {
		row, ok := rows[name]
		if !ok {
			t.Fatalf("missing min100 row %q", name)
		}
		if e := core.RelativeError(row.FS1, def.FS1); e > 0.02 {
			t.Errorf("%s FS1 error %.3f > 2%%", name, e)
		}
		if row.S1Dims != paper5.S1 || row.S2Dims != paper5.S2 {
			t.Errorf("%s found %v/%v, want Table V optima", name, row.S1Dims, row.S2Dims)
		}
		if row.Speedup <= 1 {
			t.Errorf("%s speedup %.2f must still exceed 1", name, row.Speedup)
		}
	}
	// min100 must cost more time than min2 for the same flags.
	if rows["C+Inner (min100)"].Time <= rows["C+Inner"].Time {
		t.Error("min_count=100 must be slower than min_count=2")
	}
}

func TestIntelComparisonReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search on the Gold 6132")
	}
	r := New()
	g, err := r.ExhaustiveDefault(r.Systems[2])
	if err != nil {
		t.Fatal(err)
	}
	ic, err := r.RunIntelComparison(g)
	if err != nil {
		t.Fatal(err)
	}
	p := PaperIntelComparison
	if math.Abs(ic.Silver4110Square-p.Silver4110SquareGFLOPS)/p.Silver4110SquareGFLOPS > 0.02 {
		t.Errorf("Silver 4110 square = %.2f, paper %.2f", ic.Silver4110Square, p.Silver4110SquareGFLOPS)
	}
	if math.Abs(ic.Silver4110Peak-p.Silver4110SPPeak) > 1e-6 {
		t.Errorf("Eq. 12 peak = %.1f, want %.1f", ic.Silver4110Peak, p.Silver4110SPPeak)
	}
	if math.Abs(ic.Gold6132Square-p.Gold6132SquareGFLOPS)/p.Gold6132SquareGFLOPS > 0.02 {
		t.Errorf("Gold 6132 square = %.2f, paper %.2f", ic.Gold6132Square, p.Gold6132SquareGFLOPS)
	}
	// The autotuned configuration must beat the square run by the
	// paper's margin (75.13% vs 55.69% of peak).
	if ic.Gold6132Autotuned <= ic.Gold6132Square*1.25 {
		t.Errorf("autotuned %.2f should beat square %.2f by >25%%",
			ic.Gold6132Autotuned, ic.Gold6132Square)
	}
	out := ic.Render().Text()
	if !strings.Contains(out, "Silver 4110") {
		t.Error("render")
	}
}

func TestFig6DataShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	r := New()
	pts, err := r.Fig6Data("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(r.Space) {
		t.Fatalf("%d points for %d configs", len(pts), len(r.Space))
	}
	// Work-sorted; iteration cost must grow ~monotonically with work
	// (Fig. 6's "time consumption increases exponentially" observation —
	// compare decade averages to tolerate noise).
	first, last := 0.0, 0.0
	for i := 0; i < 20; i++ {
		first += pts[i].SecPerIter
		last += pts[len(pts)-1-i].SecPerIter
	}
	if last < first*50 {
		t.Errorf("cost must grow strongly with size: first-20 avg %.3g, last-20 avg %.3g", first/20, last/20)
	}
	// Performance peaks are "spread out over the entire spectrum": the
	// best config must NOT be the largest one.
	bestIdx := 0
	for i, p := range pts {
		if p.GFLOPS > pts[bestIdx].GFLOPS {
			bestIdx = i
		}
	}
	if bestIdx > len(pts)-10 {
		t.Error("optimum should not sit at the extreme end of the size spectrum")
	}
}
