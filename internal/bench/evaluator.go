package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"rooftune/internal/stats"
	"rooftune/internal/vclock"
)

// NoBest is the bound to pass when no incumbent configuration exists yet;
// stop condition 4 never fires against it.
var NoBest = math.Inf(-1)

// InvocationResult summarises one completed invocation.
type InvocationResult struct {
	Mean     float64       // mean metric over the invocation's iterations
	Samples  int           // iterations measured
	Measured time.Duration // accumulated measured kernel time
	Reason   StopReason    // which condition ended the iteration loop
	CI       stats.Interval
}

// Outcome is the full evaluation result of one configuration.
type Outcome struct {
	Key      string
	Describe string
	Metric   Metric
	// Config is the evaluated configuration's typed identity, copied from
	// the Case so winners are recovered without parsing Key.
	Config Config

	// Mean is the grand mean over invocation means — the configuration's
	// reported performance.
	Mean float64
	// Invocations holds per-invocation details in execution order.
	Invocations []InvocationResult
	// InnerStops counts invocations that stop condition 4 ended early
	// ("Inner"): their means are truncated low, never above the incumbent.
	InnerStops int
	// Pruned reports that the invocation loop itself was abandoned by the
	// outer bound ("Outer"): the configuration provably could not beat
	// the incumbent, so remaining invocations were skipped.
	Pruned bool
	// Elapsed is the evaluation's total clock cost: setup, warm-up,
	// measurement and overheads — the quantity the paper's "Time"
	// columns accumulate.
	Elapsed time.Duration
	// TotalSamples counts measured iterations across invocations.
	TotalSamples int
}

// Better reports whether this outcome beats the given metric value.
// Outer-pruned outcomes never do: their data is partial by construction,
// and inner-stopped invocations only ever truncate the mean downward, so
// a higher mean is always a sound improvement signal.
func (o *Outcome) Better(best float64) bool {
	return !o.Pruned && o.Mean > best
}

// Evaluator runs the Fig. 2 benchmarking process for one configuration at
// a time against a clock; it is not safe for concurrent use.
type Evaluator struct {
	Clock  vclock.Clock
	Budget Budget
	// Sampler, when non-nil, observes every measured iteration (the
	// §VII time-series hook).
	Sampler Sampler

	// zLevel and z memoize the normal quantile of the last evaluation's
	// CI level (zLevel 0 until the first evaluation; a normalized level
	// is never 0), so it is recomputed only when Budget.CILevel changes.
	zLevel, z float64
}

// NewEvaluator builds an evaluator with the budget's defaults normalised.
func NewEvaluator(clock vclock.Clock, budget Budget) *Evaluator {
	return &Evaluator{Clock: clock, Budget: budget.normalized()}
}

// Evaluate runs the full invocation/iteration process for case c, pruning
// against best, the incumbent's metric value in base units (NoBest if no
// incumbent exists). The returned outcome's Elapsed is measured on the
// evaluator's clock, so it includes setup and warm-up cost — everything
// the search pays for.
//
// Cancelling ctx aborts the evaluation between kernel executions — after
// at most one more Step — and returns ctx.Err(); the partial outcome is
// discarded, never reported as a measurement. Cancellation is observed by
// polling ctx.Done(), read once on entry, so the per-Step check takes no
// lock: concurrently running sweeps share one context, and ctx.Err() on
// a cancelable context locks its mutex. ctx.Err() is only called once
// the channel has fired.
//
//rooflint:hotpath
func (e *Evaluator) Evaluate(ctx context.Context, c Case, best float64) (*Outcome, error) {
	b := e.Budget.normalized()
	ci := e.intervals(b)
	done := ctx.Done()
	out := &Outcome{Key: c.Key(), Config: c.Config(), Describe: c.Describe(), Metric: c.Metric()}
	out.Invocations = make([]InvocationResult, 0, b.Invocations)
	watch := vclock.NewStopwatch(e.Clock)

	var (
		outer          stats.Welford
		configMeasured time.Duration
	)
	for inv := 0; inv < b.Invocations; inv++ {
		if fired(done) {
			return nil, ctx.Err()
		}
		if b.Scope == ScopePerConfig && configMeasured >= b.MaxTime {
			break // stop condition 1 at configuration scope
		}
		inst, err := c.NewInvocation(inv)
		if err != nil {
			return nil, fmt.Errorf("bench: invocation %d of %s: %w", inv, out.Key, err)
		}
		timeLeft := b.MaxTime
		if b.Scope == ScopePerConfig {
			timeLeft = b.MaxTime - configMeasured
		}
		res := e.runIteration(done, out.Key, inv, inst, b, ci, best, timeLeft)
		inst.Close()
		if fired(done) {
			return nil, ctx.Err()
		}
		out.Invocations = append(out.Invocations, res)
		out.TotalSamples += res.Samples
		configMeasured += res.Measured
		if res.Reason == StopBound {
			out.InnerStops++
		}
		outer.Add(res.Mean)

		// Stop condition 4 on the invocation loop ("Outer"): if even the
		// upper confidence bound of the invocation-level mean cannot reach
		// the incumbent, drop the configuration without the remaining
		// invocations.
		if b.UseOuterBound && outer.N() >= 2 && !math.IsInf(best, -1) && ci.beaten(&outer, best) {
			out.Pruned = true
			break
		}
	}
	out.Mean = outer.Mean()
	out.Elapsed = watch.Elapsed()
	return out, nil
}

// runIteration executes one invocation's iteration loop under the budget.
// timeLeft is the remaining measured-time allowance for this invocation
// (already scoped by the caller). At least one iteration always runs, so
// every invocation produces a mean. Before every Step it polls done, the
// evaluation context's Done channel, without blocking and without a
// lock; once done has fired it returns, and Evaluate reports ctx.Err().
//
//rooflint:hotpath
func (e *Evaluator) runIteration(done <-chan struct{}, key string, invocation int, inst Instance, b Budget, ci intervals, best float64, timeLeft time.Duration) InvocationResult {
	inst.Warmup()

	var (
		w        stats.Welford
		measured time.Duration
		reason   = StopNone
		detector *stats.SteadyDetector
	)
	if b.UseSteadyState {
		detector = stats.NewSteadyDetector(b.SteadyWindow, b.SteadyThreshold)
	}
	work := inst.Work()
	relTarget := b.RelWidthTarget()
	bounded := b.UseInnerBound && !math.IsInf(best, -1)
	for count := 0; ; {
		if fired(done) {
			break // Evaluate discards the partial outcome and reports ctx.Err()
		}
		if count >= b.MaxIterations {
			reason = StopMaxCount // stop condition 2
			break
		}
		if count > 0 && measured >= timeLeft {
			reason = StopMaxTime // stop condition 1
			break
		}
		elapsed := inst.Step()
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		measured += elapsed
		// Below a second, Seconds() is 0 + float64(elapsed)/1e9: the same
		// bits without its integer division and remainder.
		secs := float64(elapsed) / 1e9
		if elapsed >= time.Second {
			secs = elapsed.Seconds()
		}
		metric := work / secs
		if e.Sampler != nil {
			e.Sampler.Sample(key, invocation, count, elapsed, metric)
		}
		count++

		// Steady-state warm-up exclusion: the sample on which the stream
		// is first declared steady restarts the statistics, so the
		// stop-condition decisions below only ever see steady samples.
		if detector != nil && !detector.Steady() {
			if detector.Add(metric) {
				w.Reset()
			}
		}
		w.Add(metric)
		n := int(w.N())
		// During warm-up (steady-state mode, detector not yet latched) no
		// statistical stop decision is sound: the mean is still drifting.
		if detector != nil && !detector.Steady() {
			continue
		}

		// Stop condition 3: the confidence interval of the mean has
		// converged to within +-1/ErrorInverse of the mean.
		if b.UseConfidence && n >= b.MinCISamples && ci.converged(&w, relTarget) {
			reason = StopConfidence
			break
		}

		// Stop condition 4 (Listing 1): mean + marg < best, after at
		// least MinCount iterations. This ends the *iteration loop*; the
		// invocation loop continues (the "Outer" flag handles that level).
		if bounded && n >= b.MinCount && ci.beaten(&w, best) {
			reason = StopBound
			break
		}
	}

	res := InvocationResult{
		Mean:     w.Mean(),
		Samples:  int(w.N()),
		Measured: measured,
		Reason:   reason,
	}
	res.CI = ci.final(&w)
	return res
}

// fired reports, without blocking, whether done has been closed. A nil
// done (context.Background) never fires.
func fired(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// intervals builds the normal confidence intervals of one evaluation.
// The quantile depends only on the budget's level, so the evaluator
// computes it once per level rather than once per evaluation or sample.
type intervals struct {
	level float64
	z     float64 // NormalQuantile(0.5 + level/2)
	z2    float64 // z*z
}

func (e *Evaluator) intervals(b Budget) intervals {
	if e.zLevel != b.CILevel {
		e.zLevel, e.z = b.CILevel, stats.NormalQuantile(0.5+b.CILevel/2)
	}
	return intervals{level: b.CILevel, z: e.z, z2: e.z * e.z}
}

// converged is stop condition 3's test, RelativeHalfWidth() <= t on the
// interval of w. It is decided by squares (stats.Welford.MarginBelow)
// and builds the interval only near a tie.
//
//rooflint:hotpath
func (ci intervals) converged(w *stats.Welford, t float64) bool {
	if below, ok := w.MarginBelow(ci.z2, t*math.Abs(w.Mean())); ok {
		return below
	}
	return ci.of(w).RelativeHalfWidth() <= t
}

// beaten is stop condition 4's test, Mean+Margin() < best on the
// interval of w. The margin is never negative, so it is false whenever
// best <= mean, and otherwise decided by squares like converged.
//
//rooflint:hotpath
func (ci intervals) beaten(w *stats.Welford, best float64) bool {
	mean := w.Mean()
	if best <= mean {
		return false
	}
	if below, ok := w.MarginBelow(ci.z2, best-mean); ok {
		return below
	}
	iv := ci.of(w)
	return iv.Mean+iv.Margin() < best
}

func (ci intervals) of(w *stats.Welford) stats.Interval {
	return stats.NormalCIWithZ(w, ci.level, ci.z)
}

func (ci intervals) final(w *stats.Welford) stats.Interval {
	if w.N() < 2 {
		return stats.Interval{Mean: w.Mean(), Lower: w.Mean(), Upper: w.Mean(), Level: ci.level}
	}
	return ci.of(w)
}
