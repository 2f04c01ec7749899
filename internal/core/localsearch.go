package core

import (
	"context"
	"fmt"

	"rooftune/internal/bench"
	"rooftune/internal/vclock"
	"rooftune/internal/xrand"
)

// The paper argues (§IV-C) that for low-cardinality, low-sample-cost
// spaces, exhaustive or random search beats advanced autotuning
// techniques, whose overhead outweighs smarter sampling. This file
// implements the comparison point: a hill-climbing local search with
// random restarts over an indexed space. BenchmarkAblationSearch measures
// both sides of that argument.

// Neighborhood defines adjacency over a case list: Neighbors(i) returns
// the indices adjacent to case i. For the DGEMM grid, neighbours differ
// by one step along one axis.
type Neighborhood interface {
	Neighbors(i int) []int
}

// GridNeighborhood is the ±1-step-per-axis adjacency of a cartesian grid
// laid out in row-major order (the layout produced by the space
// constructors in this package).
type GridNeighborhood struct {
	// AxisSizes are the lengths of each axis, outermost first; their
	// product must equal the case count.
	AxisSizes []int
}

// Neighbors implements Neighborhood.
func (g GridNeighborhood) Neighbors(i int) []int {
	coords := g.coords(i)
	var out []int
	for axis := range coords {
		for _, delta := range []int{-1, 1} {
			c := append([]int(nil), coords...)
			c[axis] += delta
			if c[axis] < 0 || c[axis] >= g.AxisSizes[axis] {
				continue
			}
			out = append(out, g.index(c))
		}
	}
	return out
}

func (g GridNeighborhood) coords(i int) []int {
	coords := make([]int, len(g.AxisSizes))
	for axis := len(g.AxisSizes) - 1; axis >= 0; axis-- {
		coords[axis] = i % g.AxisSizes[axis]
		i /= g.AxisSizes[axis]
	}
	return coords
}

func (g GridNeighborhood) index(coords []int) int {
	i := 0
	for axis, c := range coords {
		i = i*g.AxisSizes[axis] + c
	}
	return i
}

// UnionSpaceNeighborhood returns the adjacency of UnionDGEMMSpace's
// 8 x 8 x 6 grid.
func UnionSpaceNeighborhood() GridNeighborhood {
	return GridNeighborhood{AxisSizes: []int{8, 8, 6}}
}

// LocalSearch is hill climbing with random restarts over an indexed case
// list. Each evaluation uses the same adaptive budget as the exhaustive
// tuner, pruning against the global best.
type LocalSearch struct {
	Evaluator *bench.Evaluator
	Hood      Neighborhood
	// Restarts is the number of random starting points (minimum 1).
	Restarts int
	// Seed drives start-point selection.
	Seed uint64
	// MaxSteps caps the climb length per restart (0 = unlimited).
	MaxSteps int
}

// NewLocalSearch builds a local search with the given budget.
func NewLocalSearch(clock vclock.Clock, budget bench.Budget, hood Neighborhood, restarts int, seed uint64) *LocalSearch {
	if restarts < 1 {
		restarts = 1
	}
	return &LocalSearch{
		Evaluator: bench.NewEvaluator(clock, budget),
		Hood:      hood,
		Restarts:  restarts,
		Seed:      seed,
	}
}

// Run climbs from each restart point, memoising evaluations: a case is
// measured at most once even if multiple climbs visit it.
func (l *LocalSearch) Run(ctx context.Context, cases []bench.Case) (*Result, error) {
	if len(cases) == 0 {
		return nil, fmt.Errorf("core: empty search space")
	}
	watch := vclock.NewStopwatch(l.Evaluator.Clock)
	rng := xrand.New(l.Seed)
	res := &Result{}
	memo := make(map[int]*bench.Outcome, len(cases))
	best := bench.NoBest

	eval := func(i int) (*bench.Outcome, error) {
		if o, ok := memo[i]; ok {
			return o, nil
		}
		o, err := l.Evaluator.Evaluate(ctx, cases[i], best)
		if err != nil {
			return nil, err
		}
		memo[i] = o
		res.All = append(res.All, o)
		res.TotalSamples += o.TotalSamples
		if o.Pruned {
			res.PrunedCount++
		}
		if o.Better(best) {
			best = o.Mean
			res.Best = o
		}
		return o, nil
	}

	for r := 0; r < l.Restarts; r++ {
		cur := rng.Intn(len(cases))
		curOut, err := eval(cur)
		if err != nil {
			return nil, err
		}
		for step := 0; l.MaxSteps == 0 || step < l.MaxSteps; step++ {
			improved := false
			for _, nb := range l.Hood.Neighbors(cur) {
				o, err := eval(nb)
				if err != nil {
					return nil, err
				}
				// Move to the first strictly better, non-pruned neighbour.
				if !o.Pruned && o.Mean > curOut.Mean {
					cur, curOut = nb, o
					improved = true
					break
				}
			}
			if !improved {
				break // local optimum
			}
		}
	}
	res.Elapsed = watch.Elapsed()
	return res, nil
}

// Evaluations returns how many distinct configurations a finished run
// measured (the coverage metric the §IV-C comparison cares about).
func (r *Result) Evaluations() int { return len(r.All) }
