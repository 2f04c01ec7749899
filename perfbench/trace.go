package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rooftune"
	"rooftune/internal/bench"
	"rooftune/internal/workload"
)

// In-process tracing. A traced campaign names the "traced-<name>"
// wrapper workloads instead of the built-ins. Each wrapper plans exactly
// what the built-in plans — same node IDs, sweep names and case configs,
// so the session fingerprint and the Result bytes are unchanged (the
// benchmark checks both) — but wraps every bench.Case so that
// NewInvocation, Warmup, Step and Close are timed. Sweep starts and case
// verdicts come from the session's progress events. Everything stays in
// memory until the run ends.

// activeTrace is the campaign trace the wrappers record into; nil means
// the wrappers pass the built-in plan through untouched. Operations that
// trace run one at a time.
var activeTrace atomic.Pointer[campaignTrace]

var builtins = []string{"dgemm", "triad", "spmv", "stencil"}

func init() {
	for _, name := range builtins {
		inner, err := workload.Get(name)
		if err != nil {
			panic(fmt.Sprintf("perfbench: built-in workload %s: %v", name, err))
		}
		if err := rooftune.RegisterWorkload(tracedWorkload{inner}); err != nil {
			panic(fmt.Sprintf("perfbench: register traced %s: %v", name, err))
		}
	}
}

func tracedNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "traced-" + n
	}
	return out
}

type tracedWorkload struct{ inner rooftune.Workload }

func (w tracedWorkload) Name() string { return "traced-" + w.inner.Name() }

func (w tracedWorkload) Plan(t rooftune.Target, p rooftune.Params) (rooftune.Plan, error) {
	plan, err := w.inner.Plan(t, p)
	tr := activeTrace.Load()
	if err != nil || tr == nil {
		return plan, err
	}
	for i := range plan.Sweeps {
		ps := &plan.Sweeps[i]
		n := tr.node(ps.Spec.Name, ps.ID, ps.SeedFrom)
		family := ps.Point.Label
		if family == "" && ps.Point.Compute {
			family = "DGEMM"
		}
		cases := make([]bench.Case, len(ps.Spec.Cases))
		for j, c := range ps.Spec.Cases {
			cases[j] = &tracedCase{Case: c, tr: tr, node: n, family: family, intensity: float64(ps.Point.Intensity)}
		}
		ps.Spec.Cases = cases
	}
	return plan, nil
}

// campaignTrace is the trace of one in-process campaign.
type campaignTrace struct {
	epoch  time.Time
	budget bench.Budget // resolved budget, for classifying invocation stops

	mu    sync.Mutex
	nodes map[string]*nodeTrace // by sweep name
}

func newCampaignTrace(budget bench.Budget) *campaignTrace {
	return &campaignTrace{epoch: time.Now(), budget: budget, nodes: map[string]*nodeTrace{}}
}

func (tr *campaignTrace) now() time.Duration { return time.Since(tr.epoch) }

// node returns a fresh trace for the named sweep. Every Plan call (New,
// Fingerprint and Run each plan) replaces it, so the cases that execute
// — those of Run's plan — record into the last one.
func (tr *campaignTrace) node(name, id, seedFrom string) *nodeTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := &nodeTrace{id: id, seedFrom: seedFrom, evStart: -1}
	tr.nodes[name] = n
	return n
}

// event is the session's progress callback. Events arrive on the
// session's drainer goroutine, slightly after the fact, so only the
// sweep start (clamped by the first case) and the case verdicts are
// taken from them.
func (tr *campaignTrace) event(ev rooftune.Event) {
	t := tr.now()
	tr.mu.Lock()
	n := tr.nodes[ev.Sweep]
	tr.mu.Unlock()
	if n == nil {
		return
	}
	switch ev.Kind {
	case rooftune.EventSweepStarted:
		n.evStart = t
	case rooftune.EventCaseEvaluated:
		n.evaluated++
		if ev.Pruned {
			n.pruned++
		}
	}
}

// nodeTrace is one plan-graph node. Only the sweep's own goroutine
// touches evals (case shards are pinned to one); only the event drainer
// touches evStart, evaluated and pruned.
type nodeTrace struct {
	id, seedFrom string
	evals        []*evalTrace
	evStart      time.Duration
	evaluated    int
	pruned       int
}

// evalTrace is one case evaluation: bench.Evaluator.Evaluate from the
// first NewInvocation to the last Close.
type evalTrace struct {
	start, end  time.Duration
	key         string
	family      string
	invocations int
	warmups     int
	steps       int
	setupBusy   time.Duration // NewInvocation + Warmup
	stepBusy    time.Duration // Step
	closeBusy   time.Duration
	earlyStops  int           // invocations ended by stop condition 3 or 4
	measured    time.Duration // engine-reported step time so far, for stop classification
	flops       float64
	bytes       float64
}

func (e *evalTrace) engineBusy() time.Duration { return e.setupBusy + e.stepBusy + e.closeBusy }

type tracedCase struct {
	bench.Case
	tr        *campaignTrace
	node      *nodeTrace
	family    string
	intensity float64
}

func (c *tracedCase) NewInvocation(inv int) (bench.Instance, error) {
	t0 := c.tr.now()
	inst, err := c.Case.NewInvocation(inv)
	t1 := c.tr.now()
	n := c.node
	if inv == 0 || len(n.evals) == 0 {
		n.evals = append(n.evals, &evalTrace{start: t0, key: c.Key(), family: c.family})
	}
	e := n.evals[len(n.evals)-1]
	e.invocations++
	e.setupBusy += t1 - t0
	e.end = t1
	if err != nil {
		return nil, err
	}
	return &tracedInstance{Instance: inst, c: c, e: e, work: inst.Work()}, nil
}

type tracedInstance struct {
	bench.Instance
	c        *tracedCase
	e        *evalTrace
	work     float64
	steps    int
	measured time.Duration
}

func (in *tracedInstance) Warmup() {
	t0 := in.c.tr.now()
	in.Instance.Warmup()
	in.e.setupBusy += in.c.tr.now() - t0
	in.e.warmups++
}

func (in *tracedInstance) Step() time.Duration {
	t0 := in.c.tr.now()
	d := in.Instance.Step()
	in.e.stepBusy += in.c.tr.now() - t0
	in.e.steps++
	in.steps++
	if d <= 0 {
		d = time.Nanosecond // as the evaluator counts it
	}
	in.measured += d
	if in.c.Metric() == bench.MetricFlops {
		in.e.flops += in.work
		if in.c.intensity > 0 {
			in.e.bytes += in.work / in.c.intensity
		} else if cfg, ok := in.c.Config().(bench.DGEMMConfig); ok {
			// Compulsory traffic of C(n x m) += A(n x k) B(k x m).
			in.e.bytes += 8 * float64(cfg.N*cfg.K+cfg.K*cfg.M+2*cfg.N*cfg.M)
		}
	} else {
		in.e.bytes += in.work
	}
	return d
}

func (in *tracedInstance) Close() {
	t0 := in.c.tr.now()
	in.Instance.Close()
	t1 := in.c.tr.now()
	e := in.e
	e.closeBusy += t1 - t0
	e.end = t1
	// The evaluator ends an invocation on the iteration cap (condition 2),
	// the measured-time cap (condition 1, per configuration by default) or
	// early on condition 3 or 4; the first two are visible from outside.
	b := in.c.tr.budget
	left := b.MaxTime
	if b.Scope == bench.ScopePerConfig {
		left -= e.measured
	}
	if in.steps < b.MaxIterations && in.measured < left {
		e.earlyStops++
	}
	e.measured += in.measured
}

// span is one recorded interval. Spans of one operation share Op; Parent
// is the ID of the enclosing span (0 for the operation's root).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Count  int    `json:"count,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// spanLog collects the spans of a run, in memory until written out.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(op, parent int, name, detail string, start, end time.Time, busy time.Duration, count int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.spans = append(l.spans, span{
		Op: op, ID: l.next, Parent: parent, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)), Busy: int64(busy), Count: count, Detail: detail,
	})
	return l.next
}

// write stores the spans as JSON lines under dir.
func (l *spanLog) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	return f.Close()
}

// campaignSplit is one traced campaign's time split by layer. Every
// instant of the campaign lies inside one of the four session calls, and
// sweeps run concurrently, so the layer times add up to the wall time
// plus the overlap between concurrently running nodes:
//
//	wall = session + sweep + core + bench + engine - overlap
type campaignSplit struct {
	wall, session, sweep, core, bench, engine, overlap time.Duration
	newT, fpT, encT                                    time.Duration
	nodeWait, nodeBusy, planSpan                       time.Duration
	setupBusy, stepBusy                                time.Duration
	counts                                             campaignCounts
	families                                           map[string]*familyWork
}

// familyWork is the kernel work of one benchmark family (DGEMM, SpMV,
// stencil, TRIAD).
type familyWork struct {
	flops    float64
	stepBusy time.Duration
}

// campaignCounts are the exact work counts of one campaign.
type campaignCounts struct {
	Sweeps, Evaluations, Invocations, Samples int
	EngineSteps, EarlyStops, Pruned           int
	Flops, Bytes                              float64
}

func (c *campaignCounts) add(o campaignCounts) {
	c.Sweeps += o.Sweeps
	c.Evaluations += o.Evaluations
	c.Invocations += o.Invocations
	c.Samples += o.Samples
	c.EngineSteps += o.EngineSteps
	c.EarlyStops += o.EarlyStops
	c.Pruned += o.Pruned
	c.Flops += o.Flops
	c.Bytes += o.Bytes
}

// sessionSpans are the boundaries of the four root-package calls one
// operation makes back to back: New from start to newEnd, then
// Fingerprint, Run and json.Marshal.
type sessionSpans struct {
	start, newEnd, fpEnd, runEnd, end time.Time
}

// finish turns the campaign trace into spans and the layer split. kernel
// reports whether the engine layer is the native kernels.
func (tr *campaignTrace) finish(log *spanLog, opID int, ss sessionSpans, kernel bool) (campaignSplit, error) {
	at := func(d time.Duration) time.Time { return tr.epoch.Add(d) }
	sp := campaignSplit{families: map[string]*familyWork{}}
	sp.wall = ss.end.Sub(ss.start)
	sp.newT, sp.fpT, sp.encT = ss.newEnd.Sub(ss.start), ss.fpEnd.Sub(ss.newEnd), ss.end.Sub(ss.runEnd)
	root := log.add(opID, 0, "op.campaign", "", ss.start, ss.end, sp.wall, 0)
	log.add(opID, root, "session.new", "", ss.start, ss.newEnd, sp.newT, 0)
	log.add(opID, root, "session.fingerprint", "", ss.newEnd, ss.fpEnd, sp.fpT, 0)
	run := log.add(opID, root, "session.run", "", ss.fpEnd, ss.runEnd, ss.runEnd.Sub(ss.fpEnd), 0)
	log.add(opID, root, "session.encode", "", ss.runEnd, ss.end, sp.encT, 0)

	engineName := "engine.invocations"
	if kernel {
		engineName = "kernel.invocations"
	}
	type iv struct {
		s, e time.Duration
		id   string
		from string
	}
	var nodes []iv
	names := make([]string, 0, len(tr.nodes))
	for name := range tr.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := tr.nodes[name]
		if len(n.evals) == 0 {
			return sp, fmt.Errorf("sweep %s recorded no evaluation", name)
		}
		if n.evaluated != len(n.evals) {
			return sp, fmt.Errorf("sweep %s: %d case-evaluated events for %d traced evaluations", name, n.evaluated, len(n.evals))
		}
		start := n.evals[0].start
		if n.evStart >= 0 && n.evStart < start {
			start = n.evStart
		}
		end := n.evals[len(n.evals)-1].end
		node := log.add(opID, run, "core.sweep", name, at(start), at(end), end-start, len(n.evals))
		nodes = append(nodes, iv{start, end, n.id, n.seedFrom})
		evalSum := time.Duration(0)
		for _, e := range n.evals {
			ev := log.add(opID, node, "bench.evaluate", e.key, at(e.start), at(e.end), e.end-e.start, e.invocations)
			log.add(opID, ev, engineName, "", at(e.start), at(e.end), e.engineBusy(), e.steps)
			evalSum += e.end - e.start
			sp.bench += e.end - e.start - e.engineBusy()
			sp.engine += e.engineBusy()
			sp.setupBusy += e.setupBusy
			sp.stepBusy += e.stepBusy
			fw := sp.families[e.family]
			if fw == nil {
				fw = &familyWork{}
				sp.families[e.family] = fw
			}
			fw.flops += e.flops
			fw.stepBusy += e.stepBusy
			sp.counts.Evaluations++
			sp.counts.Invocations += e.invocations
			sp.counts.Samples += e.steps
			sp.counts.EngineSteps += e.steps + e.warmups
			sp.counts.EarlyStops += e.earlyStops
			sp.counts.Flops += e.flops
			sp.counts.Bytes += e.bytes
		}
		sp.core += end - start - evalSum
		sp.counts.Sweeps++
		sp.counts.Pruned += n.pruned
		sp.nodeBusy += end - start
	}

	// Run's own time splits into the plan-graph schedule (gaps between
	// nodes while any is still to run) and the session's planning and
	// assembly before the first and after the last node.
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].s < nodes[j].s })
	runS, runE := ss.fpEnd.Sub(tr.epoch), ss.runEnd.Sub(tr.epoch)
	first, last := nodes[0].s, nodes[0].e
	union, curS, curE := time.Duration(0), nodes[0].s, nodes[0].e
	for _, n := range nodes[1:] {
		if n.e > last {
			last = n.e
		}
		if n.s > curE {
			union += curE - curS
			curS, curE = n.s, n.e
		} else if n.e > curE {
			curE = n.e
		}
	}
	union += curE - curS
	sp.overlap = sp.nodeBusy - union
	sp.planSpan = last - first
	sp.sweep = sp.planSpan - union
	sp.session = sp.newT + sp.fpT + sp.encT + (first - runS) + (runE - last)

	// A node is ready when its seed dependency finished, or when the plan
	// starts if it has none; waiting is ready to started.
	byID := map[string]iv{}
	for _, n := range nodes {
		byID[n.id] = n
	}
	for _, n := range nodes {
		ready := first
		if dep, ok := byID[n.from]; ok && n.from != "" {
			ready = dep.e
		}
		if n.s > ready {
			sp.nodeWait += n.s - ready
		}
	}
	return sp, nil
}
