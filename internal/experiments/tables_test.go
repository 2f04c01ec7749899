package experiments

import (
	"context"
	"strings"
	"testing"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/hw"
)

func TestTable1Render(t *testing.T) {
	out := New().Table1().Text()
	for _, frag := range []string{"10", "200", "10s", "100"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Table I missing %q:\n%s", frag, out)
		}
	}
}

func TestTable2Render(t *testing.T) {
	out := New().Table2().Text()
	for _, frag := range []string{"2650v4", "AVX2", "Gold 6148", "AVX512", "30 MiB", "2.2GHz"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Table II missing %q:\n%s", frag, out)
		}
	}
}

func TestTable3Render(t *testing.T) {
	out := New().Table3().Text()
	// Exact Table III numbers.
	for _, frag := range []string{"422.4", "604.8", "1164.8", "1536.0", "76.800", "127.968"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Table III missing %q:\n%s", frag, out)
		}
	}
}

func TestTable7Render(t *testing.T) {
	out := New().Table7().Text()
	for _, frag := range []string{"2650v4", "7", "20", "180", "150"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Table VII missing %q:\n%s", frag, out)
		}
	}
}

func TestSystemByName(t *testing.T) {
	r := New()
	if _, err := r.SystemByName("2695v4"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SystemByName("nope"); err == nil {
		t.Fatal("unknown system must error")
	}
}

func TestBestDimsParsing(t *testing.T) {
	r := New()
	sys := r.Systems[0]
	eng := bench.NewSimEngine(sys, r.Seed)
	// Construct a result by evaluating one case.
	eval := bench.NewEvaluator(eng.Clock, bench.Budget{Invocations: 1, MaxIterations: 2})
	out, err := eval.Evaluate(context.Background(), eng.DGEMMCase(1000, 4096, 128, 1), bench.NoBest)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BestDims(&core.Result{Best: out})
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 1000 || d.M != 4096 || d.K != 128 {
		t.Fatalf("parsed %v", d)
	}
	if _, err := BestDims(nil); err == nil {
		t.Fatal("nil result must error")
	}
	if _, err := BestDims(&core.Result{}); err == nil {
		t.Fatal("result without best must error")
	}
	// A key-only outcome (no typed config) must be a loud error, never
	// silently-zero dims — the bug the typed identity removed.
	keyOnly := &bench.Outcome{Key: "dgemm/1/1000x4096x128"}
	if d, err := BestDims(&core.Result{Best: keyOnly}); err == nil {
		t.Fatalf("config-less outcome returned dims %v, want error", d)
	}
}

func TestFig2ContainsStopConditions(t *testing.T) {
	d := Fig2()
	for _, frag := range []string{"invocation loop", "iteration loop", "stop 1",
		"stop 2", "stop 3", "stop 4", "Welford", "gettimeofday"} {
		if !strings.Contains(d, frag) {
			t.Fatalf("Fig. 2 missing %q", frag)
		}
	}
}

func TestPaperDataConsistency(t *testing.T) {
	// Paper reference tables must cover the four systems consistently.
	for _, sys := range hw.IdunSystems() {
		if _, ok := PaperTable3[sys.Name]; !ok {
			t.Errorf("PaperTable3 missing %s", sys.Name)
		}
		if _, ok := PaperTable4[sys.Name]; !ok {
			t.Errorf("PaperTable4 missing %s", sys.Name)
		}
		if _, ok := PaperTable5[sys.Name]; !ok {
			t.Errorf("PaperTable5 missing %s", sys.Name)
		}
		if _, ok := PaperTable6[sys.Name]; !ok {
			t.Errorf("PaperTable6 missing %s", sys.Name)
		}
		rows, ok := PaperTablesOpt[sys.Name]
		if !ok {
			t.Errorf("PaperTablesOpt missing %s", sys.Name)
			continue
		}
		if def, ok := rows["Default"]; !ok || def.Speedup != 1 {
			t.Errorf("%s: Default row must exist with speedup 1", sys.Name)
		}
		// Speedup columns must equal DefaultTime/TechTime as printed
		// (cross-check of our transcription, 1% rounding slack).
		defTime := rows["Default"].TimeSec
		for name, row := range rows {
			if name == "Default" {
				continue
			}
			implied := defTime / row.TimeSec
			if implied/row.Speedup > 1.02 || implied/row.Speedup < 0.98 {
				t.Errorf("%s %s: printed speedup %.2f vs implied %.2f",
					sys.Name, name, row.Speedup, implied)
			}
		}
	}
}

// TestSessionDriversRefuseSeedZero: rooftune.WithSeed(0) selects the
// default seed, so a session driver given seed 0 fails instead of
// measuring under a seed the runner does not report.
func TestSessionDriversRefuseSeedZero(t *testing.T) {
	r := New()
	r.Seed = 0
	if _, err := r.ExhaustiveDefault(r.Systems[0]); err == nil {
		t.Fatal("ExhaustiveDefault ran with seed 0")
	}
	if _, err := r.RunTriad(r.Systems[0], bench.DefaultBudget()); err == nil {
		t.Fatal("RunTriad ran with seed 0")
	}
}
