package sweep

import (
	"context"
	"fmt"
	"sort"
)

// Node is one sweep in a plan graph: a Spec under a stable ID, with an
// optional SeedFrom dependency edge. When the sweep named by SeedFrom
// finishes with a measured (non-salvage) winner, this sweep's incumbent
// bound is pre-seeded with that winner's value before it starts, so stop
// condition 4 prunes from the very first case — the cross-sweep analogue
// of the paper's search-cost-reduction techniques. Edges must stay inside
// one metric: a FLOP/s bound is meaningless to a bandwidth sweep.
type Node struct {
	// ID is the sweep's stable identity, unique within the plan. By
	// convention "<workload>/<region-or-axis>/<target>", e.g.
	// "triad/L3/2s".
	ID string
	// SeedFrom optionally names the node whose winner pre-seeds this
	// sweep's incumbent. Empty means the sweep starts unseeded.
	SeedFrom string
	// Spec is the sweep itself.
	Spec Spec
}

// PlanViolations checks a plan graph's structural invariants and returns
// every violation: non-empty unique IDs, SeedFrom edges that reference
// known IDs, no self-edges or cycles, and same-metric edges only. It is
// shared by ValidatePlan (which callers use as a gate) and the workload
// conformance harness (which wants the full list).
func PlanViolations(nodes []Node) []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	index := make(map[string]int, len(nodes))
	for i, n := range nodes {
		if n.ID == "" {
			fail("sweep: node %d (%s) has an empty plan-graph ID", i, n.Spec.Name)
			continue
		}
		if prev, dup := index[n.ID]; dup {
			fail("sweep: nodes %d and %d share plan-graph ID %q", prev, i, n.ID)
			continue
		}
		index[n.ID] = i
	}
	for _, n := range nodes {
		if n.SeedFrom == "" {
			continue
		}
		if n.SeedFrom == n.ID {
			fail("sweep: node %q seeds from itself", n.ID)
			continue
		}
		j, ok := index[n.SeedFrom]
		if !ok {
			fail("sweep: node %q seeds from unknown node %q", n.ID, n.SeedFrom)
			continue
		}
		// Cross-metric edge: a winner in one unit cannot bound a search
		// in another. Only checkable when both sides have cases (empty
		// case lists are their own violation elsewhere).
		if len(n.Spec.Cases) > 0 && len(nodes[j].Spec.Cases) > 0 {
			if m, sm := n.Spec.Cases[0].Metric(), nodes[j].Spec.Cases[0].Metric(); m != sm {
				fail("sweep: node %q (%s) seeds from %q (%s): cross-metric edges are invalid",
					n.ID, m.Unit(), n.SeedFrom, sm.Unit())
			}
		}
	}
	// Cycle detection over the (at most one per node) SeedFrom edges:
	// walk each chain with a colour map.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make(map[string]int, len(nodes))
	for _, n := range nodes {
		var path []string
		for at := n.ID; at != ""; {
			i, ok := index[at]
			if !ok || colour[at] == black {
				break
			}
			if colour[at] == grey {
				fail("sweep: SeedFrom cycle through %q (%v)", at, path)
				break
			}
			colour[at] = grey
			path = append(path, at)
			at = nodes[i].SeedFrom
		}
		for _, id := range path {
			colour[id] = black
		}
	}
	return errs
}

// ValidatePlan reports the first structural violation of a plan graph, or
// nil for a well-formed one. See PlanViolations for the invariant list.
func ValidatePlan(nodes []Node) error {
	if errs := PlanViolations(nodes); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// RunPlan executes a plan graph: independent nodes run concurrently, at
// most Host at a time, while a node with a SeedFrom edge waits for its
// dependency and starts with its incumbent pre-seeded by the
// dependency's winner (core.Tuner.Incumbent). A dependency that
// finishes with only a salvage value (Result.BestPruned) releases its
// dependents unseeded — a truncated partial mean is not a bound worth
// pruning against. Outcomes are returned in node order and record their
// seeding (Outcome.SeededFrom, Outcome.SeedValue); they never depend on
// the schedule.
//
// Seeding never changes which configuration wins a well-ordered chain:
// the seed is a measured mean of the same metric, so any configuration it
// prunes was provably below an already-measured winner elsewhere — only
// PrunedCount, TotalSamples and per-case truncation can differ from an
// unchained run. A seed above the dependent sweep's true best over-prunes
// everything; Result.BestPruned then flags the salvage value, exactly as
// with a caller-supplied incumbent.
//
// With an Exec hook installed, each ready node is delegated to the
// external executor instead of running in-process — the distributed
// tier's coordinator — with the exact seed the local schedule would
// have applied, and falls back to local execution per node when the
// executor declines (see Exec, ExecFunc). The topological schedule,
// seeding rules and outcome order are identical either way.
//
// The reported error is always the first failing node in node order.
// A Host-1 run fails fast: no node starts after a failure, so a broken
// first sweep on the native path never pays for minutes of doomed
// wall-clock benchmarking. Parallel runs finish every in-flight node
// instead: skipping by a racy flag would make which error surfaces
// depend on timing. A node whose dependency failed never starts, and an
// empty case list is an error. Cancelling ctx aborts the run between
// kernel executions, joins every node goroutine, and reports an error
// satisfying errors.Is(err, ctx.Err()) — unless every node had already
// completed, in which case the finished outcomes are returned.
func (r *Runner) RunPlan(ctx context.Context, nodes []Node) ([]Outcome, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sweep: empty plan")
	}
	if err := ValidatePlan(nodes); err != nil {
		return nil, err
	}
	workers := r.workerCount()
	failFast := workers == 1

	index := make(map[string]int, len(nodes))
	for i, n := range nodes {
		index[n.ID] = i
	}
	children := make([][]int, len(nodes))
	indeg := make([]int, len(nodes))
	for i, n := range nodes {
		if n.SeedFrom != "" {
			p := index[n.SeedFrom]
			children[p] = append(children[p], i)
			indeg[i]++
		}
	}

	var (
		outs    = make([]Outcome, len(nodes))
		errs    = make([]error, len(nodes))
		started = make([]bool, len(nodes))
		seeds   = make([]seed, len(nodes))
		ready   []int
		running int
		failed  bool
		done    = make(chan int)
	)
	for i := range nodes {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for completed := 0; completed < len(nodes); {
		for len(ready) > 0 && running < workers &&
			ctx.Err() == nil && !(failFast && failed) {
			i := ready[0]
			ready = ready[1:]
			started[i] = true
			running++
			//rooflint:allow nogoroutine -- plan-graph dispatcher; every node goroutine reports on done and is drained by the completion loop below
			go func(i int) {
				n := nodes[i]
				out, err := r.execOne(ctx, n, seeds[i])
				out.ID = n.ID
				outs[i], errs[i] = out, err
				done <- i
			}(i)
		}
		if running == 0 {
			// Nothing runnable: remaining nodes are blocked on a failed
			// dependency, a failure under fail-fast, or cancellation.
			break
		}
		i := <-done
		running--
		completed++
		if errs[i] != nil {
			failed = true
			continue // children of a failed node never become ready
		}
		for _, c := range children[i] {
			indeg[c]--
			if indeg[c] > 0 {
				continue
			}
			if res := outs[i].Result; res != nil && res.Best != nil && !res.BestPruned {
				seeds[c] = seed{from: nodes[i].ID, value: res.BestValue()}
				if r.Hooks.SweepSeeded != nil {
					r.Hooks.SweepSeeded(nodes[c].ID, nodes[i].ID, seeds[c].value)
				}
			}
			// Keep the ready queue in node order so serial schedules are
			// the stable topological order of the input.
			ready = append(ready, c)
			sort.Ints(ready)
		}
	}
	// Attribute never-started nodes: a cancelled run's skipped nodes must
	// carry the ctx error themselves, and a node whose dependency failed
	// names it. Fail-fast skips stay error-free — the root failure is
	// what gets reported.
	for i := range nodes {
		if started[i] || errs[i] != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("sweep: %s: %w", nodes[i].Spec.Name, err)
		} else if !failed {
			errs[i] = fmt.Errorf("sweep: %s: dependency %s never completed", nodes[i].Spec.Name, nodes[i].SeedFrom)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}
