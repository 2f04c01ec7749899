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
// a time against a clock.
type Evaluator struct {
	Clock  vclock.Clock
	Budget Budget
	// Sampler, when non-nil, observes every measured iteration (the
	// §VII time-series hook).
	Sampler Sampler
}

// NewEvaluator builds an evaluator with the budget's defaults normalised.
func NewEvaluator(clock vclock.Clock, budget Budget) *Evaluator {
	return &Evaluator{Clock: clock, Budget: budget.normalized()}
}

// Evaluate runs the full invocation/iteration process for case c, pruning
// against the incumbent bound inc (use None if no incumbent exists). The
// bound is loaded exactly once, on entry, so the whole evaluation prunes
// against one consistent value, even when inc is a shared AtomicIncumbent
// that rises mid-evaluation. The returned outcome's Elapsed is measured
// on the evaluator's clock, so it includes setup and warm-up cost —
// everything the search pays for.
//
// Cancelling ctx aborts the evaluation between kernel executions — after
// at most one more Step — and returns ctx.Err(); the partial outcome is
// discarded, never reported as a measurement.
//
//rooflint:hotpath
func (e *Evaluator) Evaluate(ctx context.Context, c Case, inc Incumbent) (*Outcome, error) {
	best := inc.Bound()
	b := e.Budget.normalized()
	out := &Outcome{Key: c.Key(), Config: c.Config(), Describe: c.Describe(), Metric: c.Metric()}
	out.Invocations = make([]InvocationResult, 0, b.Invocations)
	watch := vclock.NewStopwatch(e.Clock)

	var (
		outer          stats.Welford
		configMeasured time.Duration
	)
	for inv := 0; inv < b.Invocations; inv++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if b.Scope == ScopePerConfig && configMeasured >= b.MaxTime {
			break // stop condition 1 at configuration scope
		}
		inst, err := c.NewInvocation(inv)
		if err != nil {
			return nil, fmt.Errorf("bench: invocation %d of %s: %w", inv, c.Key(), err)
		}
		timeLeft := b.MaxTime
		if b.Scope == ScopePerConfig {
			timeLeft = b.MaxTime - configMeasured
		}
		res := e.runIteration(ctx, c.Key(), inv, inst, b, best, timeLeft)
		inst.Close()
		if err := ctx.Err(); err != nil {
			return nil, err
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
		if b.UseOuterBound && outer.N() >= 2 && !math.IsInf(best, -1) {
			iv := e.interval(&outer, b)
			if iv.Mean+iv.Margin() < best {
				out.Pruned = true
				break
			}
		}
	}
	out.Mean = outer.Mean()
	out.Elapsed = watch.Elapsed()
	return out, nil
}

// runIteration executes one invocation's iteration loop under the budget.
// timeLeft is the remaining measured-time allowance for this invocation
// (already scoped by the caller). At least one iteration always runs, so
// every invocation produces a mean.
//
//rooflint:hotpath
func (e *Evaluator) runIteration(ctx context.Context, key string, invocation int, inst Instance, b Budget, best float64, timeLeft time.Duration) InvocationResult {
	inst.Warmup()

	var (
		w        stats.Welford
		measured time.Duration
		reason   = StopNone
		samples  []float64 // retained only for the median extension
		detector *stats.SteadyDetector
	)
	if b.UseMedian {
		// Sized to the iteration cap up front: the median rule keeps every
		// steady sample, and growing the slice mid-loop would charge
		// allocator time to the measured stream.
		samples = make([]float64, 0, b.MaxIterations)
	}
	if b.UseSteadyState {
		detector = stats.NewSteadyDetector(b.SteadyWindow, b.SteadyThreshold)
	}
	work := inst.Work()
	for count := 0; ; {
		if ctx.Err() != nil {
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
		metric := work / elapsed.Seconds()
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
				samples = samples[:0]
			}
		}
		w.Add(metric)
		if b.UseMedian {
			samples = append(samples, metric)
		}
		n := int(w.N())
		// During warm-up (steady-state mode, detector not yet latched) no
		// statistical stop decision is sound: the mean is still drifting.
		if detector != nil && !detector.Steady() {
			continue
		}

		// Stop condition 3: the confidence interval of the mean has
		// converged to within +-1/ErrorInverse of the mean.
		if b.UseConfidence && n >= b.MinCISamples {
			if b.UseMedian {
				if medianConverged(samples, b) {
					reason = StopConfidence
					break
				}
			} else {
				iv := e.interval(&w, b)
				if iv.RelativeHalfWidth() <= b.RelWidthTarget() {
					reason = StopConfidence
					break
				}
			}
		}

		// Stop condition 4 (Listing 1): mean + marg < best, after at
		// least MinCount iterations. This ends the *iteration loop*; the
		// invocation loop continues (the "Outer" flag handles that level).
		if b.UseInnerBound && n >= b.MinCount && !math.IsInf(best, -1) {
			iv := e.interval(&w, b)
			if iv.Mean+iv.Margin() < best {
				reason = StopBound
				break
			}
		}
	}

	res := InvocationResult{
		Mean:     w.Mean(),
		Samples:  int(w.N()),
		Measured: measured,
		Reason:   reason,
	}
	res.CI = e.intervalFinal(&w, b)
	return res
}

func (e *Evaluator) interval(w *stats.Welford, b Budget) stats.Interval {
	if b.UseStudentT {
		return stats.StudentCI(w, b.CILevel)
	}
	return stats.NormalCI(w, b.CILevel)
}

func (e *Evaluator) intervalFinal(w *stats.Welford, b Budget) stats.Interval {
	if w.N() < 2 {
		return stats.Interval{Mean: w.Mean(), Lower: w.Mean(), Upper: w.Mean(), Level: b.CILevel}
	}
	return e.interval(w, b)
}

// medianConverged implements the future-work median rule: the notched
// boxplot confidence interval of the median (1.58*IQR/sqrt(n)) relative
// to the median is within the budget's target.
func medianConverged(samples []float64, b Budget) bool {
	med := stats.Median(samples)
	if med == 0 {
		return false
	}
	marg := 1.58 * stats.IQR(samples) / math.Sqrt(float64(len(samples)))
	return marg/math.Abs(med) <= b.RelWidthTarget()
}
