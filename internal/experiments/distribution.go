package experiments

import (
	"context"
	"fmt"
	"math"

	"rooftune/internal/bench"
	"rooftune/internal/report"
	"rooftune/internal/stats"
)

// DistributionRow summarises the shape of one system's per-iteration
// runtime distribution at its optimal configuration.
type DistributionRow struct {
	System    string
	Samples   int
	MeanSec   float64
	CoV       float64
	Skewness  float64
	Kurtosis  float64 // excess
	JBStat    float64
	JBPValue  float64
	Lag1      float64 // lag-1 autocorrelation of the sample stream
	ESS       float64 // effective sample size given Lag1
	NonNormal bool
}

// DistributionStudy reproduces the paper's §III-C3 observation: "when the
// distribution of runtimes of our benchmarks is graphed, we find that the
// distribution is usually non-normal". For each system it collects the
// iteration times of a full Default invocation set at the Table V optimal
// configuration and tests normality (Jarque-Bera) and independence
// (lag-1 autocorrelation; Kalibera & Jones).
func (r *Runner) DistributionStudy() ([]DistributionRow, error) {
	var rows []DistributionRow
	for _, sys := range r.Systems {
		opt, ok := PaperTable5[sys.Name]
		if !ok {
			continue
		}
		eng := bench.NewSimEngine(sys, r.Seed)
		trace := bench.NewTraceBuffer()
		eval := bench.NewEvaluator(eng.Clock, bench.DefaultBudget())
		eval.Sampler = trace
		c := eng.DGEMMCase(opt.S1.N, opt.S1.M, opt.S1.K, 1)
		if _, err := eval.Evaluate(context.Background(), c, bench.NoBest); err != nil {
			return nil, fmt.Errorf("experiments: distribution study %s: %w", sys.Name, err)
		}
		pts := trace.Trace(c.Key())
		times := make([]float64, len(pts))
		for i, p := range pts {
			times[i] = p.Elapsed.Seconds()
		}
		mean, variance := stats.TwoPassMeanVariance(times)
		jb, pv := stats.JarqueBera(times)
		lag1 := stats.Lag1Autocorrelation(times)
		row := DistributionRow{
			System:    sys.Name,
			Samples:   len(times),
			MeanSec:   mean,
			Skewness:  stats.Skewness(times),
			Kurtosis:  stats.ExcessKurtosis(times),
			JBStat:    jb,
			JBPValue:  pv,
			Lag1:      lag1,
			ESS:       stats.EffectiveSampleSize(len(times), lag1),
			NonNormal: pv < 0.01,
		}
		if mean > 0 && variance > 0 {
			row.CoV = math.Sqrt(variance) / mean
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDistributionStudy formats the study.
func RenderDistributionStudy(rows []DistributionRow) *report.Table {
	t := report.NewTable("§III-C3 runtime-distribution study (Default run at the Table V optimum, single socket)",
		"System", "n", "CoV", "skew", "ex.kurt", "JB p", "lag-1", "ESS", "normal?")
	for _, row := range rows {
		normal := "yes"
		if row.NonNormal {
			normal = "no"
		}
		t.AddRow(row.System,
			fmt.Sprintf("%d", row.Samples),
			fmt.Sprintf("%.3f", row.CoV),
			fmt.Sprintf("%.2f", row.Skewness),
			fmt.Sprintf("%.2f", row.Kurtosis),
			fmt.Sprintf("%.2g", row.JBPValue),
			fmt.Sprintf("%.2f", row.Lag1),
			fmt.Sprintf("%.0f", row.ESS),
			normal,
		)
	}
	t.AddNote("Right-skewed, heavy-tailed runtimes — the paper's justification for discussing bootstrap and median alternatives (§III-C3, §VII).")
	return t
}
