package experiments

import (
	"strings"
	"testing"
)

func TestConstraintStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve searches")
	}
	r := New()
	rows, err := r.ConstraintStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d systems", len(rows))
	}
	for _, row := range rows {
		// §IV-A: non-square beats square on every system, significantly.
		if row.Full <= row.Square*1.05 {
			t.Errorf("%s: full %.2f should beat square %.2f by >5%%",
				row.System, row.Full, row.Square)
		}
		// m=n sits between: more freedom than square, less than full.
		if row.MNConstrained < row.Square*0.999 {
			t.Errorf("%s: m=n (%.2f) must not lose to m=n=k (%.2f)",
				row.System, row.MNConstrained, row.Square)
		}
		if row.MNConstrained > row.Full*1.001 {
			t.Errorf("%s: m=n (%.2f) cannot beat unconstrained (%.2f)",
				row.System, row.MNConstrained, row.Full)
		}
		if row.FullDims.N == row.FullDims.M && row.FullDims.M == row.FullDims.K {
			t.Errorf("%s: unconstrained optimum is square (%v)?", row.System, row.FullDims)
		}
	}
	out := RenderConstraintStudy(rows).Text()
	if !strings.Contains(out, "square loss") {
		t.Fatal("render")
	}
}

func TestTable6Extended(t *testing.T) {
	if testing.Short() {
		t.Skip("TRIAD campaigns")
	}
	r := New()
	runs, err := r.Table6Data()
	if err != nil {
		t.Fatal(err)
	}
	// The L1/L2 sweeps batch passes per timed step, so every level reads
	// its plateau and the hierarchy is strictly ordered on every socket
	// configuration; an unbatched L1 sweep reads the timer floor instead
	// and falls below L2.
	for _, run := range runs {
		for _, sockets := range run.System.SocketConfigs() {
			l1, l2 := run.Peak(sockets, "L1"), run.Peak(sockets, "L2")
			l3, dram := run.Peak(sockets, "L3"), run.Peak(sockets, "DRAM")
			if !(l1 > l2 && l2 > l3 && l3 > dram && dram > 0) {
				t.Errorf("%s S%d: hierarchy not strictly ordered: L1 %.0f L2 %.0f L3 %.0f DRAM %.0f",
					run.System.Name, sockets, l1, l2, l3, dram)
			}
		}
	}
	out := Table6Extended(runs).Text()
	for _, frag := range []string{"B_L1,S1", "B_L2,S1", "2650v4"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("extended table missing %q:\n%s", frag, out)
		}
	}
}

func TestSecondChanceStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("two full searches on the 2695v4")
	}
	r := New()
	row, err := r.SecondChanceStudy()
	if err != nil {
		t.Fatal(err)
	}
	// The plain min_count=2 run is the anomaly: degraded result.
	// The second-chance pass must recover performance close to Table IV
	// (593.06 GFLOP/s) and find the exact Table V configuration.
	if row.FS1Fixed < row.FS1 {
		t.Fatalf("second chance made things worse: %.2f -> %.2f", row.FS1, row.FS1Fixed)
	}
	want := PaperTable5["2695v4"].S1
	if row.DimsFixed != want {
		t.Errorf("second chance found %v, want %v", row.DimsFixed, want)
	}
	if row.FS1Fixed < PaperTable4["2695v4"].FS1*0.97 {
		t.Errorf("second chance FS1 %.2f too far below Table IV %.2f",
			row.FS1Fixed, PaperTable4["2695v4"].FS1)
	}
	out := row.Render().Text()
	if !strings.Contains(out, "second chance") {
		t.Fatal("render")
	}
}

func TestGenerateMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	r := New()
	md, err := r.GenerateMarkdown()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"# EXPERIMENTS", "Table I", "Table III", "Tables IV & V",
		"Table VI", "Table VIII", "Fig. 1", "Fig. 6",
		"min_count", "Intel", "2695v4",
	} {
		if !strings.Contains(md, frag) {
			t.Errorf("EXPERIMENTS.md missing %q", frag)
		}
	}
	if len(md) < 10000 {
		t.Fatalf("document suspiciously short: %d bytes", len(md))
	}
}

func TestDistributionStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full default invocation sets")
	}
	r := New()
	rows, err := r.DistributionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d systems", len(rows))
	}
	nonNormal := 0
	for _, row := range rows {
		if row.Samples < 500 {
			t.Errorf("%s: only %d samples", row.System, row.Samples)
		}
		// Runtime distributions are right-skewed (spikes lengthen, never
		// shorten, an iteration).
		if row.Skewness < 0 {
			t.Errorf("%s: skewness %.2f, want positive", row.System, row.Skewness)
		}
		if row.NonNormal {
			nonNormal++
		}
		if row.ESS <= 0 || row.ESS > float64(row.Samples) {
			t.Errorf("%s: ESS %.0f out of range", row.System, row.ESS)
		}
	}
	// "the distribution is usually non-normal" (§III-C3).
	if nonNormal < 3 {
		t.Errorf("only %d of 4 systems non-normal; paper says 'usually'", nonNormal)
	}
	out := RenderDistributionStudy(rows).Text()
	if !strings.Contains(out, "normal?") {
		t.Fatal("render")
	}
}
