package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"rooftune/internal/bench"
)

// Campaign is the complete reproduction run: every table's data for every
// system, machine-readable. cmd/experiments and the EXPERIMENTS.md
// generator both consume it; the JSON form feeds external plotting.
type Campaign struct {
	Seed      uint64
	DGEMM     []*DGEMMRun
	Triad     []*TriadRun
	Opt       []*OptTable
	Intel     *IntelComparison
	StartedAt time.Time
	WallTime  time.Duration
}

// RunCampaign executes the full campaign, one system after another;
// each system's sessions run their sweeps concurrently.
func (r *Runner) RunCampaign() (*Campaign, error) {
	//rooflint:allow nodeterminism -- campaign wall time is reporting metadata, never a measured result
	c := &Campaign{Seed: r.Seed, StartedAt: time.Now()}
	for _, sys := range r.Systems {
		dg, err := r.ExhaustiveDefault(sys)
		if err != nil {
			return nil, fmt.Errorf("campaign %s dgemm: %w", sys.Name, err)
		}
		tr, err := r.RunTriad(sys, bench.DefaultBudget().WithFlags(true, true, false))
		if err != nil {
			return nil, fmt.Errorf("campaign %s triad: %w", sys.Name, err)
		}
		opt, err := r.OptimizationTable(sys.Name)
		if err != nil {
			return nil, fmt.Errorf("campaign %s opt: %w", sys.Name, err)
		}
		c.DGEMM = append(c.DGEMM, dg)
		c.Triad = append(c.Triad, tr)
		c.Opt = append(c.Opt, opt)
		if sys.Name == "Gold 6132" {
			// The Intel comparison depends on the Gold 6132 run.
			if c.Intel, err = r.RunIntelComparison(dg); err != nil {
				return nil, err
			}
		}
	}
	c.WallTime = time.Since(c.StartedAt) //rooflint:allow nodeterminism -- wall time of the whole campaign, reporting metadata
	return c, nil
}

// MarshalJSON exports the campaign's headline numbers.
func (c *Campaign) MarshalJSON() ([]byte, error) {
	type dgemmJSON struct {
		System  string  `json:"system"`
		FS1     float64 `json:"fs1_gflops"`
		FS2     float64 `json:"fs2_gflops"`
		S1Dims  string  `json:"s1_dims"`
		S2Dims  string  `json:"s2_dims"`
		TimeSec float64 `json:"search_time_s"`
	}
	type triadJSON struct {
		System string  `json:"system"`
		DramS1 float64 `json:"dram_s1_gbps"`
		DramS2 float64 `json:"dram_s2_gbps"`
		L3S1   float64 `json:"l3_s1_gbps"`
		L3S2   float64 `json:"l3_s2_gbps"`
	}
	type optJSON struct {
		System    string  `json:"system"`
		Technique string  `json:"technique"`
		FS1       float64 `json:"fs1_gflops"`
		FS2       float64 `json:"fs2_gflops"`
		TimeSec   float64 `json:"time_s"`
		Speedup   float64 `json:"speedup"`
	}
	out := struct {
		Seed     uint64      `json:"seed"`
		DGEMM    []dgemmJSON `json:"dgemm"`
		Triad    []triadJSON `json:"triad"`
		Opt      []optJSON   `json:"optimizations"`
		WallSecs float64     `json:"wall_time_s"`
	}{Seed: c.Seed, WallSecs: c.WallTime.Seconds()}
	for _, run := range c.DGEMM {
		out.DGEMM = append(out.DGEMM, dgemmJSON{
			System: run.System.Name,
			FS1:    run.S1.Flops.GFLOPS(), FS2: run.S2.Flops.GFLOPS(),
			S1Dims: run.S1.Dims.String(), S2Dims: run.S2.Dims.String(),
			TimeSec: run.Total.Seconds(),
		})
	}
	for _, run := range c.Triad {
		out.Triad = append(out.Triad, triadJSON{
			System: run.System.Name,
			DramS1: run.Peak(1, "DRAM"),
			DramS2: run.Peak(run.System.Sockets, "DRAM"),
			L3S1:   run.Peak(1, "L3"),
			L3S2:   run.Peak(run.System.Sockets, "L3"),
		})
	}
	for _, tbl := range c.Opt {
		for _, row := range append(append([]OptRow{}, tbl.Rows...), tbl.MinCountRows...) {
			out.Opt = append(out.Opt, optJSON{
				System: tbl.System, Technique: row.Technique,
				FS1: row.FS1, FS2: row.FS2,
				TimeSec: row.Time.Seconds(), Speedup: row.Speedup,
			})
		}
	}
	return json.MarshalIndent(out, "", "  ")
}
