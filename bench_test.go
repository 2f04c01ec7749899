package rooftune

// This file is the benchmark harness required by the reproduction: one
// testing.B benchmark per table and figure of the paper, regenerating the
// artifact per iteration, plus ablation benchmarks for the design choices
// called out in DESIGN.md §6.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The per-iteration cost of the table benchmarks is a full autotuning
// campaign in virtual time; the interesting outputs are the custom
// metrics (virtual search seconds, speedups), reported alongside
// wall-clock ns/op.

import (
	"context"
	"testing"

	"rooftune/internal/bench"
	"rooftune/internal/blas"
	"rooftune/internal/core"
	"rooftune/internal/experiments"
	"rooftune/internal/hw"
	"rooftune/internal/stats"
	"rooftune/internal/stream"
	"rooftune/internal/units"
	"rooftune/internal/xrand"
)

func BenchmarkTable1(b *testing.B) {
	r := experiments.New()
	for i := 0; i < b.N; i++ {
		if r.Table1().Text() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	r := experiments.New()
	for i := 0; i < b.N; i++ {
		if r.Table2().Text() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	r := experiments.New()
	for i := 0; i < b.N; i++ {
		if r.Table3().Text() == "" {
			b.Fatal("empty table")
		}
	}
}

// benchTable4Data runs the exhaustive Default campaign (Tables IV+V).
func benchTable4Data(b *testing.B, r *experiments.Runner) []*experiments.DGEMMRun {
	runs, err := r.Table4Data()
	if err != nil {
		b.Fatal(err)
	}
	return runs
}

func BenchmarkTable4(b *testing.B) {
	r := experiments.New()
	var virtual float64
	for i := 0; i < b.N; i++ {
		runs := benchTable4Data(b, r)
		experiments.Table4(runs)
		virtual = 0
		for _, run := range runs {
			virtual += run.Total.Seconds()
		}
	}
	b.ReportMetric(virtual, "virtual-s")
}

func BenchmarkTable5(b *testing.B) {
	r := experiments.New()
	for i := 0; i < b.N; i++ {
		runs := benchTable4Data(b, r)
		if _, err := experiments.Table5(runs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	r := experiments.New()
	var virtual float64
	for i := 0; i < b.N; i++ {
		runs, err := r.Table6Data()
		if err != nil {
			b.Fatal(err)
		}
		experiments.Table6(runs)
		virtual = 0
		for _, run := range runs {
			virtual += run.Total.Seconds()
		}
	}
	b.ReportMetric(virtual, "virtual-s")
}

func BenchmarkTable7(b *testing.B) {
	r := experiments.New()
	for i := 0; i < b.N; i++ {
		if r.Table7().Text() == "" {
			b.Fatal("empty table")
		}
	}
}

func benchOptTable(b *testing.B, system string) {
	r := experiments.New()
	var bestSpeedup float64
	for i := 0; i < b.N; i++ {
		tbl, err := r.OptimizationTable(system)
		if err != nil {
			b.Fatal(err)
		}
		bestSpeedup = 0
		for _, row := range tbl.Rows {
			switch row.Technique {
			case "Confidence", "C+Inner", "C+Inner+R", "C+I+Outer", "C+I+O+R":
				if row.Speedup > bestSpeedup {
					bestSpeedup = row.Speedup
				}
			}
		}
	}
	b.ReportMetric(bestSpeedup, "best-CI-speedup-x")
}

func BenchmarkTable8(b *testing.B)  { benchOptTable(b, "2650v4") }
func BenchmarkTable9(b *testing.B)  { benchOptTable(b, "2695v4") }
func BenchmarkTable10(b *testing.B) { benchOptTable(b, "Gold 6132") }
func BenchmarkTable11(b *testing.B) { benchOptTable(b, "Gold 6148") }

func BenchmarkFig1(b *testing.B) {
	r := experiments.New()
	runs := benchTable4Data(b, r)
	triads, err := r.Table6Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := experiments.Fig1(runs[3], triads[3])
		if err != nil {
			b.Fatal(err)
		}
		if m.RenderASCII(72, 18) == "" || m.RenderSVG(800, 560) == "" {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig2() == "" {
			b.Fatal("empty diagram")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	r := experiments.New()
	runs := benchTable4Data(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Fig3(runs).TSV() == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	r := experiments.New()
	triads, err := r.Table6Data()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Fig4(triads).TSV() == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	r := experiments.New()
	var tables []*experiments.OptTable
	for _, sys := range []string{"2650v4", "Gold 6148"} {
		tbl, err := r.OptimizationTable(sys)
		if err != nil {
			b.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Fig5(tables).TSV() == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	r := experiments.New()
	for i := 0; i < b.N; i++ {
		pts, err := r.Fig6Data("2650v4")
		if err != nil {
			b.Fatal(err)
		}
		if experiments.Fig6(pts).TSV() == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkIntelComparison(b *testing.B) {
	r := experiments.New()
	g, err := r.ExhaustiveDefault(r.Systems[2])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunIntelComparison(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// BenchmarkAblationWelford compares the online variance update against
// recomputing with the two-pass formula after every observation — the
// cost the paper avoids by using Welford (§III-C3).
func BenchmarkAblationWelford(b *testing.B) {
	rng := xrand.New(1)
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = rng.LogNormal(0, 0.02)
	}
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w stats.Welford
			for _, x := range samples {
				w.Add(x)
				_ = w.Variance()
			}
		}
	})
	b.Run("two-pass-per-update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for n := 1; n <= len(samples); n++ {
				_, _ = stats.TwoPassMeanVariance(samples[:n])
			}
		}
	})
}

// BenchmarkAblationBootstrap quantifies §III-C3's rejection of online
// bootstrapping: one normal-theory CI versus one bootstrap CI at the
// sample sizes the stop conditions evaluate.
func BenchmarkAblationBootstrap(b *testing.B) {
	rng := xrand.New(2)
	samples := make([]float64, 50)
	var w stats.Welford
	for i := range samples {
		samples[i] = rng.LogNormal(0, 0.02)
		w.Add(samples[i])
	}
	b.Run("normal-ci", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = stats.NormalCI(&w, 0.99)
		}
	})
	b.Run("bootstrap-1000", func(b *testing.B) {
		boot := xrand.New(3)
		for i := 0; i < b.N; i++ {
			_ = stats.BootstrapCI(samples, 0.99, 1000, boot)
		}
	})
}

// BenchmarkAblationMinCount contrasts min_count 2 vs 100 on the noisy
// 2695v4 (§VI-C): the low setting is faster but degrades the result.
func BenchmarkAblationMinCount(b *testing.B) {
	r := experiments.New()
	sys, err := r.SystemByName("2695v4")
	if err != nil {
		b.Fatal(err)
	}
	for _, mc := range []struct {
		name string
		min  int
	}{{"min2", 2}, {"min100", 100}} {
		b.Run(mc.name, func(b *testing.B) {
			var virtual, fs1 float64
			for i := 0; i < b.N; i++ {
				tech, _ := core.TechniqueByName("2695v4", "C+Inner", mc.min)
				run, err := r.RunDGEMMTechnique(sys, tech)
				if err != nil {
					b.Fatal(err)
				}
				virtual = run.Total.Seconds()
				fs1 = run.S1.BestValue() / 1e9
			}
			b.ReportMetric(virtual, "virtual-s")
			b.ReportMetric(fs1, "FS1-gflops")
		})
	}
}

// BenchmarkAblationOrder measures traversal-order cost under full
// early termination (the paper's "R" rows and Fig. 6 discussion).
func BenchmarkAblationOrder(b *testing.B) {
	space := core.UnionDGEMMSpace()
	budget := bench.DefaultBudget().WithFlags(true, true, true)
	for _, ord := range []core.Order{core.OrderForward, core.OrderReverse, core.OrderRandom} {
		b.Run(ord.String(), func(b *testing.B) {
			var virtual float64
			for i := 0; i < b.N; i++ {
				eng := bench.NewSimEngine(hw.IdunGold6148, experiments.DefaultSeed)
				tuner := core.NewTuner(eng.Clock, budget, ord)
				res, err := tuner.Run(context.Background(), experiments.DGEMMCases(eng, space, 1))
				if err != nil {
					b.Fatal(err)
				}
				virtual = res.Elapsed.Seconds()
			}
			b.ReportMetric(virtual, "virtual-s")
		})
	}
}

// BenchmarkAblationSpace compares the three §IV-A search spaces: the
// initial 539-point space, the reduced 96-point space, and the union
// space the results imply.
func BenchmarkAblationSpace(b *testing.B) {
	budget := bench.DefaultBudget().WithFlags(true, true, true)
	for _, sp := range []struct {
		name  string
		space []core.Dims
	}{
		{"initial-539", core.InitialDGEMMSpace()},
		{"reduced-96", core.ReducedDGEMMSpace()},
		{"union-384", core.UnionDGEMMSpace()},
	} {
		b.Run(sp.name, func(b *testing.B) {
			var virtual, best float64
			for i := 0; i < b.N; i++ {
				eng := bench.NewSimEngine(hw.IdunE52650v4, experiments.DefaultSeed)
				tuner := core.NewTuner(eng.Clock, budget, core.OrderForward)
				res, err := tuner.Run(context.Background(), experiments.DGEMMCases(eng, sp.space, 1))
				if err != nil {
					b.Fatal(err)
				}
				virtual = res.Elapsed.Seconds()
				best = res.BestValue() / 1e9
			}
			b.ReportMetric(virtual, "virtual-s")
			b.ReportMetric(best, "best-gflops")
		})
	}
}

// BenchmarkAblationSearch weighs the paper's §IV-C position — exhaustive
// search suffices at this cardinality — against a hill-climbing local
// search with restarts: the metric pair to compare is virtual-s (cost)
// vs best-gflops (quality).
func BenchmarkAblationSearch(b *testing.B) {
	space := core.UnionDGEMMSpace()
	budget := bench.DefaultBudget().WithFlags(true, true, true)
	b.Run("exhaustive", func(b *testing.B) {
		var virtual, best float64
		for i := 0; i < b.N; i++ {
			eng := bench.NewSimEngine(hw.IdunGold6148, experiments.DefaultSeed)
			tuner := core.NewTuner(eng.Clock, budget, core.OrderForward)
			res, err := tuner.Run(context.Background(), experiments.DGEMMCases(eng, space, 1))
			if err != nil {
				b.Fatal(err)
			}
			virtual, best = res.Elapsed.Seconds(), res.BestValue()/1e9
		}
		b.ReportMetric(virtual, "virtual-s")
		b.ReportMetric(best, "best-gflops")
	})
	b.Run("hill-climb-6-restarts", func(b *testing.B) {
		var virtual, best, evals float64
		for i := 0; i < b.N; i++ {
			eng := bench.NewSimEngine(hw.IdunGold6148, experiments.DefaultSeed)
			ls := core.NewLocalSearch(eng.Clock, budget, core.UnionSpaceNeighborhood(), 6, 11)
			res, err := ls.Run(context.Background(), experiments.DGEMMCases(eng, space, 1))
			if err != nil {
				b.Fatal(err)
			}
			virtual, best = res.Elapsed.Seconds(), res.BestValue()/1e9
			evals = float64(res.Evaluations())
		}
		b.ReportMetric(virtual, "virtual-s")
		b.ReportMetric(best, "best-gflops")
		b.ReportMetric(evals, "configs-evaluated")
	})
}

// BenchmarkSecondChance measures the §VII late-bloomer remedy against the
// paper's min_count=100 fix on the anomalous 2695v4.
func BenchmarkSecondChance(b *testing.B) {
	r := experiments.New()
	var plain, fixed float64
	for i := 0; i < b.N; i++ {
		row, err := r.SecondChanceStudy()
		if err != nil {
			b.Fatal(err)
		}
		plain, fixed = row.FS1, row.FS1Fixed
	}
	b.ReportMetric(plain, "plain-FS1-gflops")
	b.ReportMetric(fixed, "fixed-FS1-gflops")
}

// BenchmarkSimulatedBuild measures the full public-API path: a complete
// roofline characterisation of one system.
func BenchmarkSimulatedBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, err := New(WithSystem("Gold 6148"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeKernels measures the real substrate kernels directly:
// the pure-Go DGEMM and TRIAD the native engine times.
func BenchmarkNativeKernels(b *testing.B) {
	b.Run("dgemm-512", func(b *testing.B) {
		a := blas.NewMatrix(512, 512)
		bb := blas.NewMatrix(512, 512)
		c := blas.NewMatrix(512, 512)
		a.FillPattern(1)
		bb.FillPattern(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blas.DGEMM(1, a, bb, 0, c, 0)
		}
		flops := units.DGEMMFlops(512, 512, 512)
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
	b.Run("triad-8MiB", func(b *testing.B) {
		v := stream.NewVectors(8 << 20 / 24)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Run(stream.Triad, 0)
		}
		bytes := units.TriadBytes(v.N())
		b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
	})
}
