// Package bench implements the benchmarking process of the paper's Fig. 2:
// an inner iteration loop measuring one kernel execution at a time and an
// outer invocation loop that re-runs the whole benchmark program, governed
// by four stop conditions (§III-C):
//
//  1. a per-invocation measured-time budget (Max time),
//  2. an iteration-count cap (Max count),
//  3. convergence of the confidence interval of the mean to ±1% (stop
//     condition 3, "Confidence"),
//  4. early termination when the CI upper bound cannot beat the best
//     known configuration (stop condition 4, "Inner"/"Outer" — Listing 1).
//
// The same loops run against simulated engines (virtual time) and native
// engines (real kernels, wall-clock time).
package bench

import (
	"time"
)

// TimeoutScope selects what the MaxTime budget applies to. The paper's
// wording ("the maximum time threshold for each invocation is set to 10s
// for each configuration", §V) is ambiguous between the two readings; the
// per-configuration reading reproduces the published Single and
// Confidence speedup magnitudes far better (see EXPERIMENTS.md), so it is
// the default. Both are implemented.
type TimeoutScope int

// Timeout scopes.
const (
	// ScopePerConfig caps the total measured time across all of a
	// configuration's invocations; once exhausted, remaining invocations
	// are skipped.
	ScopePerConfig TimeoutScope = iota
	// ScopePerInvocation caps each invocation's measured time separately.
	ScopePerInvocation
)

// String names the scope.
func (s TimeoutScope) String() string {
	if s == ScopePerInvocation {
		return "per-invocation"
	}
	return "per-config"
}

// Budget is the evaluation budget and stop-condition configuration —
// Table I of the paper plus the optimisation flags of §VI-C.
type Budget struct {
	// Invocations is the outer-loop repetition count (Table I: 10).
	Invocations int
	// MaxIterations caps the inner loop (Table I: 200) — stop condition 2.
	MaxIterations int
	// MaxTime caps the accumulated *measured* iteration-loop time (Table
	// I: 10 s) — stop condition 1. See TimeoutScope.
	MaxTime time.Duration
	// Scope selects per-configuration (default) or per-invocation
	// accounting for MaxTime.
	Scope TimeoutScope
	// ErrorInverse is Table I's "Error" parameter: the confidence
	// interval is considered converged when its half-width is within
	// 1/ErrorInverse of the mean (100 -> +-1%).
	ErrorInverse float64
	// CILevel is the confidence level for every interval (the paper uses
	// 99%).
	CILevel float64

	// UseConfidence enables stop condition 3 on the iteration loop ("C").
	UseConfidence bool
	// UseInnerBound enables stop condition 4 on the iteration loop ("I").
	UseInnerBound bool
	// UseOuterBound enables stop condition 4 on the invocation loop ("O").
	UseOuterBound bool
	// MinCount is the minimum iteration count before stop condition 4 may
	// trigger (default 2; the paper raises it to 100 on the 2695v4).
	MinCount int
	// MinCISamples is the minimum sample count before stop condition 3
	// may trigger; guards the normality assumption for tiny n.
	MinCISamples int

	// UseSteadyState enables Georges et al.'s warm-up exclusion (§II):
	// samples before the CoV of the last SteadyWindow observations drops
	// below SteadyThreshold are excluded from the stop-condition
	// statistics. This addresses the paper's §VII concern about
	// configurations "that achieve a high performance late into the
	// iteration-count" being pruned prematurely.
	UseSteadyState bool
	// SteadyWindow is the detection window (default 10).
	SteadyWindow int
	// SteadyThreshold is the CoV bound declaring steadiness (default
	// 0.02).
	SteadyThreshold float64
}

// DefaultBudget returns Table I's configuration with every optimisation
// disabled: the "Default" fixed-sample-size technique of Tables VIII-XI.
func DefaultBudget() Budget {
	return Budget{
		Invocations:   10,
		MaxIterations: 200,
		MaxTime:       10 * time.Second,
		ErrorInverse:  100,
		CILevel:       0.99,
		MinCount:      2,
		MinCISamples:  5,
	}
}

// normalized returns the budget with zero fields replaced by safe
// defaults.
func (b Budget) normalized() Budget {
	if b.Invocations <= 0 {
		b.Invocations = 1
	}
	if b.MaxIterations <= 0 {
		b.MaxIterations = 1
	}
	if b.MaxTime <= 0 {
		b.MaxTime = 10 * time.Second
	}
	if b.ErrorInverse <= 0 {
		b.ErrorInverse = 100
	}
	if b.CILevel <= 0 || b.CILevel >= 1 {
		b.CILevel = 0.99
	}
	if b.MinCount < 2 {
		b.MinCount = 2
	}
	if b.MinCISamples < 2 {
		b.MinCISamples = 2
	}
	if b.SteadyWindow <= 1 {
		b.SteadyWindow = 10
	}
	if b.SteadyThreshold <= 0 {
		b.SteadyThreshold = 0.02
	}
	return b
}

// RelWidthTarget returns the convergence threshold for stop condition 3.
func (b Budget) RelWidthTarget() float64 { return 1 / b.ErrorInverse }

// WithFlags returns a copy of the budget with the optimisation flags set;
// a convenience for building the technique matrix of Tables VIII-XI.
func (b Budget) WithFlags(confidence, inner, outer bool) Budget {
	b.UseConfidence = confidence
	b.UseInnerBound = inner
	b.UseOuterBound = outer
	return b
}

// WithMinCount returns a copy with the stop-condition-4 minimum count.
func (b Budget) WithMinCount(n int) Budget {
	b.MinCount = n
	return b
}

// StopReason says which condition ended an invocation's iteration loop.
type StopReason int

// Stop reasons, in the numbering of §III-C.
const (
	StopNone       StopReason = iota
	StopMaxTime               // condition 1
	StopMaxCount              // condition 2
	StopConfidence            // condition 3
	StopBound                 // condition 4 (pruned against best)
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopMaxTime:
		return "max-time"
	case StopMaxCount:
		return "max-count"
	case StopConfidence:
		return "confidence"
	case StopBound:
		return "bound-pruned"
	default:
		return "none"
	}
}
