package core

import (
	"context"
	"math"
	"time"

	"rooftune/internal/bench"
)

// SecondChance implements the paper's §VII proposal for handling
// configurations "that achieve a high performance late into the
// iteration-count": after the main (aggressively pruning) search, any
// configuration whose truncated evidence still reached within Margin of
// the incumbent is re-evaluated with a conservative budget, and the best
// is updated if a late bloomer wins.
type SecondChance struct {
	// Margin is the relative closeness to the incumbent that qualifies a
	// pruned or inner-stopped configuration for re-evaluation (default
	// 0.25: anything within 25%).
	Margin float64
	// Budget is the conservative re-evaluation budget; zero value means
	// the Table I budget with only the confidence stop enabled (accurate
	// but far cheaper than Default thanks to stop condition 3).
	Budget bench.Budget
}

// DefaultSecondChance returns the recommended configuration: a
// confidence-stopped re-evaluation with steady-state warm-up exclusion,
// so a late bloomer's ramp neither biases its mean nor delays CI
// convergence.
func DefaultSecondChance() SecondChance {
	b := bench.DefaultBudget().WithFlags(true, false, false)
	b.UseSteadyState = true
	return SecondChance{Margin: 0.25, Budget: b}
}

// SecondChanceResult extends a search result with the re-evaluation pass.
type SecondChanceResult struct {
	*Result
	// Revisited holds the re-evaluated outcomes in pass order.
	Revisited []*bench.Outcome
	// Promoted reports whether the re-evaluation changed the winner.
	Promoted bool
}

// RunWithSecondChance performs the tuner's normal search, then gives
// near-miss pruned configurations a second, conservative evaluation.
// The engine cost of the second pass accrues on the same clock, so the
// combined Result.Elapsed remains the true total search time.
func (t *Tuner) RunWithSecondChance(ctx context.Context, cases []bench.Case, sc SecondChance) (*SecondChanceResult, error) {
	if sc.Margin <= 0 {
		sc.Margin = 0.25
	}
	if sc.Budget.Invocations == 0 {
		sc.Budget = DefaultSecondChance().Budget
	}
	first, err := t.Run(ctx, cases)
	if err != nil {
		return nil, err
	}
	out := &SecondChanceResult{Result: first}
	if first.Best == nil {
		return out, nil
	}

	byKey := make(map[string]bench.Case, len(cases))
	for _, c := range cases {
		byKey[c.Key()] = c
	}
	best := first.Best.Mean
	reEval := bench.NewEvaluator(t.Evaluator.Clock, sc.Budget)
	reEval.Sampler = t.Evaluator.Sampler
	for _, o := range first.All {
		if o == first.Best {
			continue
		}
		// Candidates: configurations whose evaluation was cut short by
		// stop condition 4 (either level) yet whose partial mean came
		// close to the incumbent — exactly the late-bloomer signature.
		if !o.Pruned && o.InnerStops == 0 {
			continue
		}
		if o.Mean < best*(1-sc.Margin) {
			continue
		}
		c, ok := byKey[o.Key]
		if !ok {
			continue
		}
		re, err := reEval.Evaluate(ctx, c, bench.NoBest)
		if err != nil {
			return nil, err
		}
		out.Revisited = append(out.Revisited, re)
		if re.Mean > best && !math.IsInf(re.Mean, 0) {
			best = re.Mean
			out.Result.Best = re
			// The re-evaluation ran to completion, so even if the first
			// pass only salvaged a pruned partial mean, Best is now a
			// genuine measured winner.
			out.Result.BestPruned = false
			out.Promoted = true
		}
	}
	// Extend the total search time with the second pass's cost so
	// Elapsed remains the true combined cost.
	var extra time.Duration
	for _, o := range out.Revisited {
		extra += o.Elapsed
		out.Result.TotalSamples += o.TotalSamples
	}
	out.Result.Elapsed = first.Elapsed + extra
	return out, nil
}
