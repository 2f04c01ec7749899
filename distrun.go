package rooftune

import (
	"context"
	"fmt"
	"time"

	distv1 "rooftune/dist/v1"
	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/sweep"
)

// This file is the distributed tier's seam through the Session: RunDist
// drives the normal plan-graph schedule but delegates each node to a
// NodeExec (the coordinator side), and RunNode executes exactly one
// plan node and returns its wire outcome (the worker side). Run, RunDist
// and RunNode share one execution path (Session.execute: planning,
// validation, runner and error mapping), and Run is RunDist with no
// executor, so a distributed run that applies the same seeds produces a
// Result byte-identical to a local one.

// ErrExecLocal, returned (or wrapped) by a NodeExec, tells RunDist to
// run that node in-process instead — the graceful fallback when no
// remote worker is live. The node runs with the exact seed a plain Run
// would have used, so a partially remote run is still bit-identical to
// a local one. It is the sweep layer's own fallback signal, so it
// reaches the scheduler untranslated.
var ErrExecLocal = sweep.ErrExecUnavailable

// NodeExec executes one plan-graph node somewhere else — the
// distributed coordinator's dispatch hook. nodeID names the node;
// seedValue is the incumbent pre-seed RunDist's schedule derived from
// the node's dependency (0: unseeded), in metric base units. The
// returned outcome must echo nodeID. NodeExec is called from concurrent
// node goroutines and must be safe for concurrent use.
type NodeExec func(ctx context.Context, nodeID string, seedValue float64) (*distv1.NodeOutcome, error)

// SharedBound is a monotone incumbent bound that can be shared across
// processes: offers only ever raise it (CAS-max over measured means),
// so pushes may arrive late, duplicated or reordered without affecting
// correctness — the PR 3 incumbent protocol, exposed for the
// distributed tier. A worker wires one into a running node via RunNode
// and applies bounds pushed to it mid-sweep.
type SharedBound struct {
	inc *bench.AtomicIncumbent
}

// NewSharedBound returns an empty bound.
func NewSharedBound() *SharedBound {
	return &SharedBound{inc: bench.NewAtomicIncumbent()}
}

// Offer raises the bound to v if v beats it; lower or NaN offers are
// no-ops. Safe for concurrent use.
func (b *SharedBound) Offer(v float64) { b.inc.Offer(v) }

// Bound returns the current bound in metric base units, and whether any
// offer has been applied yet.
func (b *SharedBound) Bound() (float64, bool) {
	v := b.inc.Bound()
	return v, v != bench.NoBest
}

// RunDist plans the session's campaign and executes its plan graph like
// Run, but delegates each node's execution to exec — the distributed
// coordinator's dispatch hook. The topological schedule and seeding
// rules are identical to a local run: a dependent node's exec call
// happens only after its dependency's measured winner arrived, carrying
// exactly the seed a local RunPlan would have applied, so the merged
// Result — winners, warnings, search-cost accounting, Summary — is
// byte-identical to Run's whenever exec faithfully executes the nodes
// (Session.RunNode on a worker is exactly that). A node whose exec
// returns ErrExecLocal falls back to in-process execution; any other
// error fails the run like a local sweep failure. The one-Run-at-a-time
// contract applies (ErrConcurrentRun).
func (s *Session) RunDist(ctx context.Context, exec NodeExec) (*Result, error) {
	if exec == nil {
		return nil, fmt.Errorf("rooftune: RunDist: nil NodeExec")
	}
	return s.runPlan(ctx, exec)
}

// runPlan executes the whole plan graph and assembles the Result. A nil
// exec runs every node in-process (Run); otherwise each node is
// delegated to exec (RunDist).
func (s *Session) runPlan(ctx context.Context, exec NodeExec) (*Result, error) {
	var outs []sweep.Outcome
	res, points, err := s.execute(ctx, func(ctx context.Context, runner *sweep.Runner, nodes []sweep.Node) (err error) {
		if exec != nil {
			runner.Exec = remoteExec(nodes, exec)
		}
		outs, err = runner.RunPlan(ctx, nodes)
		return err
	})
	if err != nil {
		return nil, err
	}
	return assembleResult(res, outs, points)
}

// remoteExec adapts a NodeExec to the sweep runner's executor hook,
// rebuilding each node's outcome from its wire form.
func remoteExec(nodes []sweep.Node, exec NodeExec) sweep.ExecFunc {
	byID := make(map[string]sweep.Node, len(nodes))
	for _, n := range nodes {
		byID[n.ID] = n
	}
	return func(ctx context.Context, n sweep.Node, _ string, seedValue float64) (sweep.Outcome, error) {
		no, err := exec(ctx, n.ID, seedValue)
		if err != nil {
			return sweep.Outcome{}, err
		}
		return outcomeFromWire(byID[n.ID], no)
	}
}

// RunNode plans the session's campaign and executes exactly one of its
// plan-graph nodes — the worker side of the distributed tier. The node
// runs precisely as a local Run executing the whole graph would have
// run it (same validation and budget), with its incumbent pre-seeded by
// seedValue (0: unseeded) — the coordinator supplies the dependency
// winner the local schedule would have. bound, when non-nil,
// is additionally wired into the search so bounds pushed to it
// mid-sweep prune like local incumbent discoveries (monotone, so pushes
// are harmless whenever they arrive). The one-Run-at-a-time contract
// applies (ErrConcurrentRun).
func (s *Session) RunNode(ctx context.Context, nodeID string, seedValue float64, bound *SharedBound) (*distv1.NodeOutcome, error) {
	var inc *bench.AtomicIncumbent
	if bound != nil {
		inc = bound.inc
	}
	var out sweep.Outcome
	_, _, err := s.execute(ctx, func(ctx context.Context, runner *sweep.Runner, nodes []sweep.Node) (err error) {
		out, err = runner.RunNode(ctx, nodes, nodeID, seedValue, inc)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outcomeToWire(&out)
}

// outcomeToWire renders a finished node as its dist/v1 wire outcome:
// exactly the fields Result assembly and downstream seeding consume.
func outcomeToWire(out *sweep.Outcome) (*distv1.NodeOutcome, error) {
	res := out.Result
	if res == nil || res.Best == nil {
		return nil, fmt.Errorf("rooftune: node %s finished without a winner", out.ID)
	}
	no := &distv1.NodeOutcome{
		Schema:       distv1.Schema,
		NodeID:       out.ID,
		Desc:         res.Best.Describe,
		Value:        res.BestValue(),
		BestPruned:   res.BestPruned,
		ElapsedNs:    int64(res.Elapsed),
		PrunedCount:  res.PrunedCount,
		TotalSamples: res.TotalSamples,
	}
	if out.Best != nil {
		data, err := bench.MarshalConfig(out.Best)
		if err != nil {
			return nil, fmt.Errorf("rooftune: node %s: encode winner: %w", out.ID, err)
		}
		no.Winner = data
	}
	return no, nil
}

// outcomeFromWire rebuilds a sweep outcome from a node's wire outcome,
// for merging into the plan schedule. The rebuilt result carries the
// winner and the search-cost accounting — everything assembleResult and
// RunPlan's seeding read — but not the per-case outcome list, which
// never crosses the wire.
func outcomeFromWire(n sweep.Node, no *distv1.NodeOutcome) (sweep.Outcome, error) {
	if no == nil {
		return sweep.Outcome{}, fmt.Errorf("rooftune: node %s: executor returned no outcome", n.ID)
	}
	if no.NodeID != n.ID {
		return sweep.Outcome{}, fmt.Errorf("rooftune: node %s: executor returned outcome for node %s", n.ID, no.NodeID)
	}
	if len(n.Spec.Cases) == 0 {
		return sweep.Outcome{}, fmt.Errorf("rooftune: node %s: empty case list", n.ID)
	}
	best := &bench.Outcome{
		Describe: no.Desc,
		Mean:     no.Value,
		Metric:   n.Spec.Cases[0].Metric(),
	}
	out := sweep.Outcome{
		ID: n.ID,
		Result: &core.Result{
			Best:         best,
			BestPruned:   no.BestPruned,
			Elapsed:      time.Duration(no.ElapsedNs),
			PrunedCount:  no.PrunedCount,
			TotalSamples: no.TotalSamples,
		},
	}
	if len(no.Winner) > 0 {
		cfg, err := bench.UnmarshalConfig(no.Winner)
		if err != nil {
			return sweep.Outcome{}, fmt.Errorf("rooftune: node %s: decode winner: %w", n.ID, err)
		}
		best.Config = cfg
		out.Best = cfg
	}
	return out, nil
}
