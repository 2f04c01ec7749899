// Package experiments contains one driver per table and figure of the
// paper's evaluation, regenerating each artifact from the simulated
// engines. Tables IV-VI and VIII-XI, the constraint study and the
// extended Table VI run through rooftune.New, the same Session a user
// runs; the per-case artifacts (Fig. 6, the second-chance and
// distribution studies, the single-case Intel comparison) read outcomes
// a Result does not carry and drive core and bench directly. The drivers
// return report.Table / report.Figure values plus the raw data, so tests
// can assert reproduction tolerances and cmd/experiments can render any
// format.
package experiments

import (
	"context"
	"fmt"
	"time"

	"rooftune"
	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/hw"
)

// DefaultSeed is the noise seed used for all published-artifact
// reproductions. The calibration tests pin the headline behaviours under
// this seed.
const DefaultSeed uint64 = 1021

// Runner holds the shared configuration of all experiment drivers.
type Runner struct {
	Seed    uint64
	Space   []core.Dims
	Systems []hw.System
}

// New returns a runner with the paper's defaults: the union DGEMM space
// and the four Idun systems.
func New() *Runner {
	return &Runner{
		Seed:    DefaultSeed,
		Space:   core.UnionDGEMMSpace(),
		Systems: hw.IdunSystems(),
	}
}

// DGEMMCases binds the runner's dimension space to an engine for one
// socket configuration.
func DGEMMCases(eng *bench.SimEngine, space []core.Dims, sockets int) []bench.Case {
	cases := make([]bench.Case, len(space))
	for i, d := range space {
		cases[i] = eng.DGEMMCase(d.N, d.M, d.K, sockets)
	}
	return cases
}

// session runs one rooftune session on a simulated system under the
// runner's seed. Seed 0 is refused: rooftune.WithSeed(0) selects the
// default seed, so the run would not be the seed the runner reports.
func (r *Runner) session(sys hw.System, opts ...rooftune.Option) (*rooftune.Result, error) {
	if r.Seed == 0 {
		return nil, fmt.Errorf("experiments: seed 0 selects the session default (%d); name a seed", DefaultSeed)
	}
	sess, err := rooftune.New(append([]rooftune.Option{rooftune.WithSystemSpec(sys), rooftune.WithSeed(r.Seed)}, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", sys.Name, err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", sys.Name, err)
	}
	return res, nil
}

// DGEMMRun is the result of applying one technique to one system: the
// single-socket and dual-socket winners and their combined cost.
type DGEMMRun struct {
	System    hw.System
	Technique core.Technique
	S1, S2    rooftune.ComputePoint
	// Total is the combined virtual search time of both sweeps — the
	// paper's "Time" column.
	Total time.Duration
}

// BestDims recovers the winning configuration of a sweep result from its
// typed identity.
func BestDims(res *core.Result) (core.Dims, error) {
	var d core.Dims
	if res == nil || res.Best == nil {
		return d, fmt.Errorf("experiments: sweep has no best outcome")
	}
	cfg, ok := res.Best.Config.(bench.DGEMMConfig)
	if !ok {
		return d, fmt.Errorf("experiments: best outcome %q carries %T, want DGEMM config",
			res.Best.Key, res.Best.Config)
	}
	return core.ConfigDims(cfg), nil
}

// RunDGEMMTechnique runs one technique's full DGEMM search: a "dgemm"
// session whose single- and dual-socket sweeps both traverse the
// runner's space in the technique's order.
func (r *Runner) RunDGEMMTechnique(sys hw.System, tech core.Technique) (*DGEMMRun, error) {
	res, err := r.session(sys,
		rooftune.WithWorkloads("dgemm"),
		rooftune.WithBudget(tech.Budget),
		rooftune.WithSpace(core.Arrange(r.Space, tech.Order, r.Seed)),
	)
	if err != nil {
		return nil, err
	}
	run := &DGEMMRun{System: sys, Technique: tech, Total: res.SearchTime}
	if run.S1, err = computeAt(res, 1); err != nil {
		return nil, err
	}
	if run.S2, err = computeAt(res, sys.Sockets); err != nil {
		return nil, err
	}
	return run, nil
}

// computeAt returns the session's compute winner for a socket count.
func computeAt(res *rooftune.Result, sockets int) (rooftune.ComputePoint, error) {
	for _, c := range res.Compute {
		if c.Sockets == sockets {
			return c, nil
		}
	}
	return rooftune.ComputePoint{}, fmt.Errorf("experiments: %s has no %d-socket compute point", res.SystemName, sockets)
}

// ExhaustiveDefault runs the Default technique (Table I budget, no
// optimisations) — the run that defines Tables IV and V.
func (r *Runner) ExhaustiveDefault(sys hw.System) (*DGEMMRun, error) {
	return r.RunDGEMMTechnique(sys, core.Technique{Name: "Default", Budget: bench.DefaultBudget()})
}

// TriadRun holds one system's TRIAD results: a bandwidth ceiling per
// residency region (L1, L2, L3, DRAM) and socket configuration.
type TriadRun struct {
	System hw.System
	Memory []rooftune.MemoryPoint
	Total  time.Duration
}

// Peak returns the region's ceiling in GB/s, or 0 when absent.
func (t *TriadRun) Peak(sockets int, region string) float64 {
	for _, m := range t.Memory {
		if m.Sockets == sockets && m.Region == region {
			return m.Bandwidth.GBps()
		}
	}
	return 0
}

// RunTriad performs the TRIAD autotuning campaign for a system: a
// "triad" session with one search per socket configuration and
// residency region (searching globally would let stop condition 4 prune
// every DRAM-resident size against the faster cache sizes). Affinity
// follows §III-B: close for single-socket runs, spread across sockets
// otherwise.
func (r *Runner) RunTriad(sys hw.System, budget bench.Budget) (*TriadRun, error) {
	res, err := r.session(sys,
		rooftune.WithWorkloads("triad"),
		rooftune.WithTriadLevels("L1", "L2", "L3", "DRAM"),
		rooftune.WithBudget(budget),
	)
	if err != nil {
		return nil, err
	}
	return &TriadRun{System: sys, Memory: res.Memory, Total: res.SearchTime}, nil
}
