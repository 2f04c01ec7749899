// Package sweep is the engine-agnostic autotuning sweep layer: it runs a
// plan graph of tuning sweeps — one per (socket configuration x
// residency region) in the roofline reproduction — and recovers each
// winner as a typed bench.Config instead of re-parsing outcome keys.
//
// Sweeps are independent by construction: each owns its engine and
// clock, and the simulated engines derive every noise sample by hashing
// (seed, configuration, invocation) rather than engine state. The runner
// may therefore execute sweeps concurrently with results bit-identical
// to serial execution (asserted by TestRunParallelDeterminism), mirroring
// the guarantee experiments.RunCampaign already makes per system. Within
// one sweep, cases are always evaluated serially (core.Tuner): stop
// condition 4 prunes against the incumbent, which is sequential state.
//
// Sweeps stop being fully independent when a plan graph says so: RunPlan
// executes Nodes whose SeedFrom edges chain same-metric sweeps, seeding a
// dependent sweep's incumbent with its dependency's measured winner so
// cross-sweep knowledge pre-prunes the search (see Node and RunPlan).
package sweep

import (
	"context"
	"errors"
	"fmt"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/parallel"
	"rooftune/internal/vclock"
)

// Spec is one independent autotuning sweep: a named case list measured on
// its own engine clock. The clock must be the one the cases' engine
// advances, so the outcome's Elapsed accounts the sweep's full cost.
type Spec struct {
	Name  string
	Clock vclock.Clock
	Cases []bench.Case
}

// Outcome pairs a finished sweep with its typed winning configuration.
type Outcome struct {
	Name string
	// ID is the sweep's plan-graph identity.
	ID string
	// Result is the tuner's full search result.
	Result *core.Result
	// Best is the winner's typed identity (nil only if the winning Case
	// itself carried no config, e.g. a test fake).
	Best bench.Config
	// SeededFrom names the plan-graph sweep whose measured winner
	// pre-seeded this sweep's incumbent bound (empty when the sweep
	// started unseeded).
	SeededFrom string
	// SeedValue is the pre-seeded incumbent in metric base units (zero
	// when SeededFrom is empty).
	SeedValue float64
}

// BestValue returns the winning mean in metric base units.
func (o *Outcome) BestValue() float64 { return o.Result.BestValue() }

// DGEMM returns the winner as a DGEMM configuration.
func (o *Outcome) DGEMM() (bench.DGEMMConfig, error) {
	cfg, ok := o.Best.(bench.DGEMMConfig)
	if !ok {
		return cfg, fmt.Errorf("sweep: %s winner has config %T, want DGEMM", o.Name, o.Best)
	}
	return cfg, nil
}

// Triad returns the winner as a TRIAD configuration.
func (o *Outcome) Triad() (bench.TriadConfig, error) {
	cfg, ok := o.Best.(bench.TriadConfig)
	if !ok {
		return cfg, fmt.Errorf("sweep: %s winner has config %T, want TRIAD", o.Name, o.Best)
	}
	return cfg, nil
}

// SpMV returns the winner as an SpMV configuration.
func (o *Outcome) SpMV() (bench.SpMVConfig, error) {
	cfg, ok := o.Best.(bench.SpMVConfig)
	if !ok {
		return cfg, fmt.Errorf("sweep: %s winner has config %T, want SpMV", o.Name, o.Best)
	}
	return cfg, nil
}

// Stencil returns the winner as a stencil configuration.
func (o *Outcome) Stencil() (bench.StencilConfig, error) {
	cfg, ok := o.Best.(bench.StencilConfig)
	if !ok {
		return cfg, fmt.Errorf("sweep: %s winner has config %T, want stencil", o.Name, o.Best)
	}
	return cfg, nil
}

// Hooks observe sweep execution. Sweeps may run concurrently, so every
// callback must be safe for concurrent use; all callbacks are optional.
// They exist to drive live progress output (the session layer adapts them
// into its public event stream) and carry no results — outcomes still
// arrive only through RunPlan's return value.
type Hooks struct {
	// SweepStarted fires when a sweep's search begins.
	SweepStarted func(name string, cases int)
	// CaseEvaluated fires after each configuration's evaluation.
	CaseEvaluated func(sweep string, out *bench.Outcome)
	// SweepWon fires when a sweep finishes with its winner.
	SweepWon func(o *Outcome)
	// SweepSeeded fires when RunPlan releases a dependent sweep with its
	// incumbent pre-seeded by a finished dependency's winner. id and from
	// are plan-graph IDs; value is the seed in metric base units.
	SweepSeeded func(id, from string, value float64)
}

// Runner executes sweeps with a shared budget; every sweep traverses
// its cases in plan order (core.OrderForward).
type Runner struct {
	Budget bench.Budget
	// Host is the runner's only parallelism knob: how many sweeps may
	// run at once (default GOMAXPROCS). 1 runs one sweep at a time and
	// fails fast; native sessions set it, because concurrent wall-clock
	// measurement would contend on the host. N runners sharing one
	// machine under a serving tier's budget are each handed capacity/N,
	// so they divide the host instead of each sizing pools as if it ran
	// alone. Host never changes results on simulated engines — sweep
	// schedules are bit-identical by construction — only how much
	// hardware the schedule occupies.
	Host int
	// Hooks observe execution; see Hooks.
	Hooks Hooks
	// Exec, when non-nil, lets RunPlan delegate whole plan nodes to an
	// external executor — the distributed tier's coordinator dispatches
	// them to remote workers. The executor receives the node plus the
	// exact seed RunPlan would have applied locally, and returns the
	// node's Outcome (Name, ID, SeededFrom and SeedValue are filled in
	// by RunPlan). Returning ErrExecUnavailable falls the node back to
	// local execution with the same seed, so a plan completes whether
	// or not any executor capacity exists. Exec is called from node
	// goroutines and must be safe for concurrent use.
	Exec ExecFunc
}

// ExecFunc executes one plan-graph node out-of-process. seedValue is
// the incumbent pre-seed in metric base units (0: unseeded), seedFrom
// the plan-graph ID it came from.
type ExecFunc func(ctx context.Context, n Node, seedFrom string, seedValue float64) (Outcome, error)

// ErrExecUnavailable, returned (or wrapped) by an ExecFunc, tells
// RunPlan to run that node locally instead — the graceful fallback when
// no remote worker is live.
var ErrExecUnavailable = errors.New("sweep: node executor unavailable")

// workerCount resolves sweep-level concurrency: the Host budget when
// set, otherwise the whole machine.
func (r *Runner) workerCount() int {
	if r.Host > 0 {
		return r.Host
	}
	return parallel.DefaultThreads()
}

// seed carries a pre-seeded incumbent into runOne.
type seed struct {
	from  string  // plan-graph ID of the sweep whose winner is the bound
	value float64 // bound in metric base units (0 = none)
	// shared, when non-nil, is an externally owned monotone incumbent
	// wired into the node's tuner (core.Tuner.Shared) so bounds pushed
	// mid-sweep — the distributed tier's async incumbent sharing —
	// reach a running search.
	shared *bench.AtomicIncumbent
}

// execOne runs one plan node through the Runner's external executor,
// falling back to local execution when the executor declines with
// ErrExecUnavailable. A remotely executed node fires SweepStarted and
// SweepWon (after completion — the remote search is opaque here, so the
// two arrive back to back); CaseEvaluated hooks fire only for locally
// run nodes.
func (r *Runner) execOne(ctx context.Context, n Node, sd seed) (Outcome, error) {
	if r.Exec == nil {
		return r.runOne(ctx, n.Spec, sd)
	}
	out, err := r.Exec(ctx, n, sd.from, sd.value)
	if errors.Is(err, ErrExecUnavailable) {
		return r.runOne(ctx, n.Spec, sd)
	}
	if err != nil {
		return Outcome{}, fmt.Errorf("sweep: %s: %w", n.Spec.Name, err)
	}
	out.Name = n.Spec.Name
	out.SeededFrom, out.SeedValue = sd.from, sd.value
	if r.Hooks.SweepStarted != nil {
		r.Hooks.SweepStarted(n.Spec.Name, len(n.Spec.Cases))
	}
	if r.Hooks.SweepWon != nil {
		r.Hooks.SweepWon(&out)
	}
	return out, nil
}

// RunNode executes exactly one node of a validated plan graph, exactly
// as a local RunPlan executing the whole graph would have run it: the
// same incumbent pre-seed, the same hooks. It is the worker
// side of the distributed tier — the coordinator honors the graph's
// seed edges and dispatches one node at a time; the worker replays just
// that node. shared, when non-nil, additionally wires an externally
// owned monotone incumbent into the search so bounds pushed mid-sweep
// reach it (see core.Tuner.Shared).
func (r *Runner) RunNode(ctx context.Context, nodes []Node, id string, seedValue float64, shared *bench.AtomicIncumbent) (Outcome, error) {
	if err := ValidatePlan(nodes); err != nil {
		return Outcome{}, err
	}
	target := -1
	for i, n := range nodes {
		if n.ID == id {
			target = i
		}
	}
	if target < 0 {
		return Outcome{}, fmt.Errorf("sweep: plan has no node %q", id)
	}
	n := nodes[target]
	sd := seed{value: seedValue, shared: shared}
	if seedValue > 0 {
		// Provenance mirrors RunPlan: SeededFrom is recorded only when a
		// seed was actually applied (a dependency that finished with a
		// salvage value releases its dependents unseeded).
		sd.from = n.SeedFrom
	}
	out, err := r.runOne(ctx, n.Spec, sd)
	if err != nil {
		return out, err
	}
	out.ID = n.ID
	return out, nil
}

func (r *Runner) runOne(ctx context.Context, s Spec, sd seed) (Outcome, error) {
	if len(s.Cases) == 0 {
		return Outcome{}, fmt.Errorf("sweep: %s: empty case list", s.Name)
	}
	if r.Hooks.SweepStarted != nil {
		r.Hooks.SweepStarted(s.Name, len(s.Cases))
	}
	tuner := core.NewTuner(s.Clock, r.Budget, core.OrderForward)
	tuner.Incumbent = sd.value
	tuner.Shared = sd.shared
	if r.Hooks.CaseEvaluated != nil {
		tuner.OnOutcome = func(out *bench.Outcome) { r.Hooks.CaseEvaluated(s.Name, out) }
	}
	res, err := tuner.Run(ctx, s.Cases)
	if err != nil {
		return Outcome{}, fmt.Errorf("sweep: %s: %w", s.Name, err)
	}
	out := Outcome{Name: s.Name, Result: res, SeededFrom: sd.from, SeedValue: sd.value}
	if res.Best != nil {
		out.Best = res.Best.Config
	}
	if r.Hooks.SweepWon != nil {
		r.Hooks.SweepWon(&out)
	}
	return out, nil
}
