package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"rooftune"
	"rooftune/internal/bench"
	"rooftune/internal/serve/campaign"
	servev1 "rooftune/serve/v1"
)

// Per system, a campaign list holds simFixed fixed-sample campaigns,
// their pruned twins and simExtraPruned pruned-only campaigns, so that
// fixed-sample and pruned campaigns each take about half of a pass's
// wall time.
const (
	simFixed       = 2
	simExtraPruned = 30
)

// simCase is one campaign of the sim-campaigns list.
type simCase struct {
	c      servev1.Campaign
	fixed  bool
	twin   int // index of the fixed-sample campaign's pruned twin, or -1
	opts   []rooftune.Option
	budget bench.Budget
}

// simList builds the seeded campaign list: per system simFixed
// fixed-sample campaigns, their pruned twins (same system and seed) and
// simExtraPruned pruned-only campaigns, in a seeded order. Every option set is resolved
// and validated through rooftune.New, which is the workload's set-up.
func simList(seed uint64) ([]simCase, error) {
	rng := newRand(seed, 1)
	taken := map[uint64]bool{}
	var list []simCase
	for _, sys := range systems {
		seeds := campaignSeeds(rng, simFixed+simExtraPruned, taken)
		for _, s := range seeds[:simFixed] {
			list = append(list, simCase{c: fixedCampaign(sys, s), fixed: true})
		}
		for _, s := range seeds {
			list = append(list, simCase{c: prunedCampaign(sys, s)})
		}
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	for i := range list {
		list[i].twin = -1
		if list[i].fixed {
			for j := range list {
				if !list[j].fixed && list[j].c.System == list[i].c.System && list[j].c.Seed == list[i].c.Seed {
					list[i].twin = j
				}
			}
		}
		opts, err := campaign.Options(list[i].c)
		if err != nil {
			return nil, err
		}
		if _, err := rooftune.New(opts...); err != nil {
			return nil, fmt.Errorf("campaign %s seed %d: %w", list[i].c.System, list[i].c.Seed, err)
		}
		list[i].opts = opts
		list[i].budget = campaignBudget(list[i].c)
	}
	return list, nil
}

// runSimCampaigns is the sim-campaigns workload: a closed loop with one
// client cycling through the campaign list, each operation an in-process
// rooftune.New, Fingerprint, Run and json.Marshal.
func runSimCampaigns(ctx context.Context, o opts, r *report) error {
	var list []simCase
	var setups []float64
	for range 5 {
		start := time.Now()
		l, err := simList(o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		list = l
	}
	r.set("setup_s", median(setups))
	lp := loopCampaigns(ctx, o, r, loopSpec{
		n:         len(list),
		workloads: simWorkloads,
		campaign: func(i int) ([]rooftune.Option, bench.Budget) {
			return list[i].opts, list[i].budget
		},
		check: checkSimResult,
	})
	if lp.results == nil {
		return fmt.Errorf("the first pass did not complete")
	}

	searchS := 0.0
	var ceilings []float64
	winnerErr, winnerAt := 0.0, ""
	for i, res := range lp.results {
		searchS += res.SearchTime.Seconds()
		ceilings = append(ceilings, dgemmCeiling(res)/1e9)
		if list[i].twin >= 0 {
			e, where, err := ceilingErr(lp.results[list[i].twin], res)
			if err != nil {
				r.invalid("%v", err)
			}
			if e > winnerErr {
				winnerErr, winnerAt = e, fmt.Sprintf("%s seed %d, %s", list[i].c.System, list[i].c.Seed, where)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: sim-campaigns: largest pruned-vs-fixed ceiling error %.2f%% (%s)\n", 100*winnerErr, winnerAt)
	r.set("search_virtual_s", searchS)
	r.set("dgemm_gflops", median(ceilings))
	r.set("bench.winner_err_pct", 100*winnerErr)
	r.exact("search_virtual_s", "dgemm_gflops", "bench.winner_err_pct")
	lp.report(r, o, len(list))
	r.notExercised("serve.", "client.", "dist.", "loadgen.")
	if o.trace {
		return measureKernels(ctx, o, r)
	}
	return nil
}

// campaignLoop is what a closed campaign loop measured.
type campaignLoop struct {
	latencies []time.Duration // untraced operations
	elapsed   time.Duration
	results   []*rooftune.Result // decoded Results of the first pass, by list index

	untracedPasses, tracedPasses []time.Duration // wall time of complete passes
	splits                       []campaignSplit // traced operations
	passCounts                   []campaignCounts
	log                          *spanLog
	spec                         loopSpec
}

// loopSpec describes a closed campaign loop.
type loopSpec struct {
	n int // campaigns per pass
	// kernel reports that the campaigns run the native kernels. Their
	// results come from the wall clock, so only simulated campaigns must
	// repeat the bytes of their first run, and their traced passes count
	// the same work.
	kernel    bool
	workloads []string // the built-in workloads every campaign runs
	campaign  func(i int) ([]rooftune.Option, bench.Budget)
	check     func([]byte) (*rooftune.Result, error)
}

// loopCampaigns runs the closed loop: one client, passes over the
// campaigns until the measured time is spent (the first pass always
// completes). With tracing, passes alternate untraced and traced, so the
// run measures its own tracing overhead; the first two passes always
// complete.
func loopCampaigns(ctx context.Context, o opts, r *report, spec loopSpec) *campaignLoop {
	lp := &campaignLoop{log: newSpanLog(), spec: spec}
	n := spec.n
	bodies := make([][]byte, n)
	results := make([]*rooftune.Result, n)
	start := time.Now()
	deadline := start.Add(o.seconds)
	opID := 0
	for pass := 0; ; pass++ {
		traced := o.trace && pass%2 == 1
		mustFinish := pass == 0 || (o.trace && pass == 1)
		if !mustFinish && time.Now().After(deadline) {
			break
		}
		passStart := time.Now()
		var counts campaignCounts
		complete := true
		for i := 0; i < n; i++ {
			if (!mustFinish && time.Now().After(deadline)) || ctx.Err() != nil {
				complete = false
				break
			}
			options, budget := spec.campaign(i)
			var out campaignOutput
			var err error
			if traced {
				opID++
				var sp campaignSplit
				out, sp, err = runTraced(ctx, options, spec.workloads, budget, lp.log, opID, spec.kernel)
				if err == nil {
					lp.splits = append(lp.splits, sp)
					counts.add(sp.counts)
				}
			} else {
				out, err = runInProcess(ctx, options)
				if err == nil {
					lp.latencies = append(lp.latencies, out.latency)
				}
			}
			if err == nil && !spec.kernel {
				err = checkRepeat(bodies, results, i, out.body, spec.check)
			} else if err == nil {
				results[i], err = spec.check(out.body)
			}
			r.op(err)
		}
		if !complete {
			break
		}
		if traced {
			lp.tracedPasses = append(lp.tracedPasses, time.Since(passStart))
			lp.passCounts = append(lp.passCounts, counts)
		} else {
			lp.untracedPasses = append(lp.untracedPasses, time.Since(passStart))
		}
		if pass == 0 && !slices.Contains(results, nil) {
			lp.results = results
		}
	}
	lp.elapsed = time.Since(start)
	return lp
}

// checkRepeat checks the first execution of campaign i with check and
// every later one for byte identity with the first.
func checkRepeat(bodies [][]byte, results []*rooftune.Result, i int, body []byte, check func([]byte) (*rooftune.Result, error)) error {
	if bodies[i] == nil {
		res, err := check(body)
		if err != nil {
			return err
		}
		bodies[i], results[i] = body, res
		return nil
	}
	if string(bodies[i]) != string(body) {
		return fmt.Errorf("campaign %d repeated with different result bytes", i)
	}
	return nil
}

// report sets the loop's metrics: the end-to-end latency and throughput
// figures from untraced operations and, on a traced run, the per-layer
// split of the traced ones. perPass is the number of campaigns a pass
// holds.
func (lp *campaignLoop) report(r *report, o opts, perPass int) {
	lat := durationsMs(lp.latencies)
	r.set("campaigns_per_s", float64(len(lp.latencies))/lp.elapsed.Seconds())
	r.set("campaign_p50_ms", median(lat))
	r.set("campaign_tail_ms", quantile(lat, tailQuantile(len(lat))))
	r.set("peak_rss_mb", selfPeakRSSMiB())
	r.set("ok_ratio", 1-float64(r.failed)/float64(max(r.attempted, 1)))
	r.set("check.error_rate", float64(r.failed)/float64(max(r.attempted, 1)))
	if !o.trace {
		return
	}
	t, ok := lp.totals(r)
	if !ok {
		return
	}
	for i, c := range lp.passCounts[1:] {
		if c != lp.passCounts[0] {
			r.invalid("traced pass %d counted %+v, pass 1 counted %+v", i+2, c, lp.passCounts[0])
		}
	}
	c, sp := t.perPass, t.split
	per := func(d time.Duration) float64 { return d.Seconds() / t.ops }
	r.set("engine.steps", c.EngineSteps)
	r.set("engine.self_s", per(sp.engine))
	r.set("engine.ns_per_step", float64(sp.engine.Nanoseconds())/float64(max(t.all.EngineSteps, 1)))
	r.set("bench.ns_per_sample", float64(sp.bench.Nanoseconds())/float64(max(t.all.Samples, 1)))
	r.set("bench.evaluations", c.Evaluations)
	r.set("bench.invocations", c.Invocations)
	r.set("bench.samples", c.Samples)
	r.set("bench.early_stops", c.EarlyStops)
	r.set("bench.pruned", c.Pruned)
	r.set("bench.prune_ratio", c.Pruned/max(c.Evaluations, 1))
	r.set("bench.self_s", per(sp.bench))
	r.set("core.sweeps", c.Sweeps)
	r.set("core.self_s", per(sp.core))
	r.set("sweep.plans", float64(perPass))
	r.set("sweep.self_s", per(sp.sweep))
	r.set("sweep.node_wait_s", per(sp.nodeWait))
	r.set("sweep.busy_frac", sp.nodeBusy.Seconds()/(sp.planSpan.Seconds()*float64(runtime.GOMAXPROCS(0))))
	r.set("session.new_s", per(sp.newT))
	r.set("session.fingerprint_s", per(sp.fpT))
	r.set("session.encode_s", per(sp.encT))
	r.set("session.resolves", float64(perPass))
	r.set("trace.wall_s", per(sp.wall))
	r.set("trace.attributed_s", per(sp.session+sp.sweep+sp.core+sp.bench+sp.engine))
	r.set("trace.unattributed_s", 0) // every instant lies inside a session call
	r.set("trace.overlap_s", per(sp.overlap))
	r.set("trace.overhead_pct", 100*(median(secondsOf(lp.tracedPasses))/median(secondsOf(lp.untracedPasses))-1))
	r.exact("engine.steps", "bench.evaluations", "bench.invocations", "bench.samples", "bench.early_stops", "bench.pruned", "core.sweeps")
	if err := lp.log.write(o.out+"/traces", fmt.Sprintf("%s-seed%d.jsonl", r.workload, o.seed)); err != nil {
		r.invalid("write spans: %v", err)
	}
}

// loopTotals sums the traced operations of a loop.
type loopTotals struct {
	split    campaignSplit  // summed over traced operations
	all      campaignCounts // summed over traced operations
	perPass  countsPerPass  // mean over complete traced passes
	ops      float64        // traced operations
	families map[string]*familyWork
}

// countsPerPass are campaignCounts averaged over passes: exact on the
// simulated engines, where every traced pass counts the same.
type countsPerPass struct {
	Sweeps, Evaluations, Invocations, Samples float64
	EngineSteps, EarlyStops, Pruned           float64
	Flops, Bytes                              float64
}

func (lp *campaignLoop) totals(r *report) (loopTotals, bool) {
	if len(lp.passCounts) == 0 {
		r.invalid("no traced pass completed")
		return loopTotals{}, false
	}
	var c campaignCounts
	for _, pc := range lp.passCounts {
		c.add(pc)
	}
	n := float64(len(lp.passCounts))
	t := loopTotals{
		ops:      float64(len(lp.splits)),
		families: map[string]*familyWork{},
		perPass: countsPerPass{
			Sweeps: float64(c.Sweeps) / n, Evaluations: float64(c.Evaluations) / n,
			Invocations: float64(c.Invocations) / n, Samples: float64(c.Samples) / n,
			EngineSteps: float64(c.EngineSteps) / n, EarlyStops: float64(c.EarlyStops) / n,
			Pruned: float64(c.Pruned) / n, Flops: c.Flops / n, Bytes: c.Bytes / n,
		},
	}
	for _, s := range lp.splits {
		t.split.wall += s.wall
		t.split.session += s.session
		t.split.sweep += s.sweep
		t.split.core += s.core
		t.split.bench += s.bench
		t.split.engine += s.engine
		t.split.overlap += s.overlap
		t.split.nodeWait += s.nodeWait
		t.split.nodeBusy += s.nodeBusy
		t.split.planSpan += s.planSpan
		t.split.newT += s.newT
		t.split.fpT += s.fpT
		t.split.encT += s.encT
		t.split.setupBusy += s.setupBusy
		t.all.add(s.counts)
		for name, fw := range s.families {
			f := t.families[name]
			if f == nil {
				f = &familyWork{}
				t.families[name] = f
			}
			f.flops += fw.flops
			f.stepBusy += fw.stepBusy
		}
	}
	return t, true
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
