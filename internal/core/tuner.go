package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/vclock"
	"rooftune/internal/xrand"
)

// Order is the traversal order of the search space.
type Order int

// Traversal orders. The paper studies Forward (cheap configurations
// first) and Reverse ("R" in Tables VIII-XI); Random is the standard
// baseline for larger spaces (§IV-C). A tuner evaluates its cases in the
// order it is given them, so an order is applied to the space with
// Arrange.
const (
	OrderForward Order = iota
	OrderReverse
	OrderRandom
)

// String names the order.
func (o Order) String() string {
	switch o {
	case OrderReverse:
		return "reverse"
	case OrderRandom:
		return "random"
	default:
		return "forward"
	}
}

// Result is the outcome of one search over a space.
type Result struct {
	// Best is the winning configuration's outcome (highest mean metric
	// among non-pruned evaluations). When BestPruned is set, no
	// configuration survived pruning and Best is a salvage value instead —
	// see BestPruned.
	Best *bench.Outcome
	// BestPruned reports that every configuration was outer-pruned (only
	// possible when the incumbent bound was pre-seeded by a chained
	// dependency or a caller-supplied value) and Best
	// holds the highest *truncated partial* mean rather than a measured
	// winner. Callers reporting Best as a measurement should surface this.
	BestPruned bool
	// All holds every configuration's outcome in traversal order — the
	// order of the cases Run was given.
	All []*bench.Outcome
	// Elapsed is the total search time on the engine's clock — virtual
	// seconds for simulated engines, the paper's "Time" column.
	Elapsed time.Duration
	// PrunedCount is how many configurations stop condition 4 abandoned.
	PrunedCount int
	// TotalSamples counts all measured iterations in the search.
	TotalSamples int
}

// BestValue returns the winning mean in metric base units, or 0 if the
// search found nothing.
func (r *Result) BestValue() float64 {
	if r.Best == nil {
		return 0
	}
	return r.Best.Mean
}

// Tuner performs exhaustive search over a benchmark case list with the
// adaptive evaluation process. Simple search techniques are the right
// tool at this cardinality (§IV-C): the spaces are small and sample cost
// dominates, so the win comes from cutting samples per configuration,
// not from clever traversal. The incumbent is one plain value owned by
// Run: the pre-seed (Incumbent), raised by every non-pruned win.
type Tuner struct {
	Evaluator *bench.Evaluator
	// OnOutcome, when non-nil, observes every evaluated configuration in
	// traversal order — used by experiment drivers to stream
	// per-configuration series (Fig. 6) without retaining engine
	// internals.
	OnOutcome func(*bench.Outcome)
	// Incumbent pre-seeds the incumbent bound (<= 0 means none): a caller
	// that already knows a reference performance — a previous sweep's
	// winner over the same metric, say — makes stop condition 4 prune
	// from the very first case. With a pre-seeded bound every
	// configuration can end up outer-pruned; Result.BestPruned reports
	// when the returned Best is such a salvage value.
	Incumbent float64
}

// NewTuner builds a tuner with the given evaluation budget on the clock.
func NewTuner(clock vclock.Clock, budget bench.Budget) *Tuner {
	return &Tuner{Evaluator: bench.NewEvaluator(clock, budget)}
}

// Run evaluates every case in the order given, carrying the incumbent
// best value into each evaluation so stop condition 4 can prune against
// it. The evaluation is strictly serial, as in the paper: the incumbent
// is sequential state, so each case is pruned against exactly the cases
// before it in traversal order. Run returns an error only on engine
// failure or context cancellation; statistical pruning is not an error.
// A canceled ctx aborts the search between kernel executions and
// returns ctx.Err().
//
//rooflint:hotpath
func (t *Tuner) Run(ctx context.Context, cases []bench.Case) (*Result, error) {
	if len(cases) == 0 {
		return nil, fmt.Errorf("core: empty search space")
	}
	watch := vclock.NewStopwatch(t.Evaluator.Clock)
	outs := make([]*bench.Outcome, 0, len(cases))
	best := t.seedBound()
	for _, c := range cases {
		out, err := t.Evaluator.Evaluate(ctx, c, best)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		if out.Better(best) {
			best = out.Mean
		}
		if t.OnOutcome != nil {
			t.OnOutcome(out)
		}
	}
	res := assembleResult(outs)
	res.Elapsed = watch.Elapsed()
	return res, nil
}

// assembleResult runs the winner-selection scan over the outcomes in
// traversal order: the first outcome with the strictly highest
// non-pruned mean wins, so ties break by traversal index.
//
//rooflint:hotpath
func assembleResult(outs []*bench.Outcome) *Result {
	res := &Result{All: outs}
	best := bench.NoBest
	for _, out := range outs {
		res.TotalSamples += out.TotalSamples
		if out.Pruned {
			res.PrunedCount++
		}
		if out.Better(best) {
			best = out.Mean
			res.Best = out
		}
	}
	if res.Best == nil && len(res.All) > 0 {
		// Everything was outer-pruned (requires a pre-seeded bound). Fall
		// back to the highest partial mean so callers get an answer, but
		// flag it: a truncated partial mean is a salvage value, not a
		// measured winner.
		for _, out := range res.All {
			if res.Best == nil || out.Mean > res.Best.Mean {
				res.Best = out
			}
		}
		res.BestPruned = true
	}
	return res
}

// seedBound resolves the pre-seeded incumbent: NoBest unless the caller
// supplied a positive reference value.
func (t *Tuner) seedBound() float64 {
	if t.Incumbent > 0 {
		return t.Incumbent
	}
	return bench.NoBest
}

// Arrange returns a copy of s in the given traversal order: forward
// keeps it, reverse reverses it, and random permutes it with a shuffle
// drawn from seed (the same seed always gives the same permutation).
func Arrange[T any](s []T, order Order, seed uint64) []T {
	out := make([]T, len(s))
	switch order {
	case OrderReverse:
		for i, v := range s {
			out[len(s)-1-i] = v
		}
	case OrderRandom:
		for i, p := range xrand.New(seed).Perm(len(s)) {
			out[i] = s[p]
		}
	default:
		copy(out, s)
	}
	return out
}

// RelativeError returns |a-b| / |b|, the paper's error measure when
// comparing an optimised search's result against the default's (the
// abstract claims < 2%). Returns +Inf for b == 0 with a != b.
func RelativeError(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}
