package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
	"rooftune/internal/vclock"
)

// flopsSpec builds a tiny FLOP/s sweep for graph-shape tests (the cases
// are never executed by the validation tests).
func flopsSpec(name string) Spec {
	sys, err := hw.Get("2650v4")
	if err != nil {
		panic(err)
	}
	eng := bench.NewSimEngine(sys, 1021)
	return Spec{Name: name, Clock: eng.Clock, Cases: []bench.Case{
		eng.DGEMMCase(512, 512, 128, 1),
	}}
}

func bandwidthSpec(name string, elems int) Spec {
	sys, err := hw.Get("2650v4")
	if err != nil {
		panic(err)
	}
	eng := bench.NewSimEngine(sys, 1021)
	return Spec{Name: name, Clock: eng.Clock, Cases: []bench.Case{
		eng.TriadCase(elems, hw.AffinityClose, 1),
	}}
}

func TestPlanViolations(t *testing.T) {
	tests := []struct {
		name  string
		nodes []Node
		want  string
	}{
		{"empty id", []Node{{ID: "", Spec: flopsSpec("a")}}, "empty plan-graph ID"},
		{"duplicate id", []Node{
			{ID: "a", Spec: flopsSpec("a")}, {ID: "a", Spec: flopsSpec("b")},
		}, "share plan-graph ID"},
		{"unknown edge", []Node{
			{ID: "a", SeedFrom: "ghost", Spec: flopsSpec("a")},
		}, "unknown node"},
		{"self edge", []Node{
			{ID: "a", SeedFrom: "a", Spec: flopsSpec("a")},
		}, "seeds from itself"},
		{"cycle", []Node{
			{ID: "a", SeedFrom: "b", Spec: flopsSpec("a")},
			{ID: "b", SeedFrom: "a", Spec: flopsSpec("b")},
		}, "cycle"},
		{"cross metric", []Node{
			{ID: "flops", Spec: flopsSpec("flops")},
			{ID: "bw", SeedFrom: "flops", Spec: bandwidthSpec("bw", 1<<18)},
		}, "cross-metric"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			errs := PlanViolations(tc.nodes)
			if len(errs) == 0 {
				t.Fatalf("violation not caught")
			}
			found := false
			for _, err := range errs {
				found = found || strings.Contains(err.Error(), tc.want)
			}
			if !found {
				t.Fatalf("no violation mentions %q: %v", tc.want, errs)
			}
			if err := ValidatePlan(tc.nodes); err == nil {
				t.Fatal("ValidatePlan must reject what PlanViolations flags")
			}
		})
	}

	good := []Node{
		{ID: "a", Spec: flopsSpec("a")},
		{ID: "b", SeedFrom: "a", Spec: flopsSpec("b")},
		{ID: "c", SeedFrom: "b", Spec: flopsSpec("c")},
		{ID: "d", Spec: bandwidthSpec("d", 1<<18)},
	}
	if errs := PlanViolations(good); len(errs) != 0 {
		t.Fatalf("well-formed graph rejected: %v", errs)
	}
}

// chainNodes builds a two-level TRIAD chain on a paper system: a DRAM
// sweep seeding an L3 sweep — the increasing-bandwidth direction where a
// seed can only prune configurations below an already-measured winner.
func chainNodes(seed uint64) []Node {
	sys, err := hw.Get("2650v4")
	if err != nil {
		panic(err)
	}
	mk := func(name string, elems []int) Spec {
		eng := bench.NewSimEngine(sys, seed)
		var cases []bench.Case
		for _, n := range elems {
			cases = append(cases, eng.TriadCase(n, hw.AffinityClose, 1))
		}
		return Spec{Name: name, Clock: eng.Clock, Cases: cases}
	}
	dramElems := []int{1 << 24, 1 << 25, 1 << 26}
	l3Elems := []int{1 << 18, 1 << 19, 1 << 20}
	return []Node{
		{ID: "triad/DRAM/1s", Spec: mk("TRIAD DRAM", dramElems)},
		{ID: "triad/L3/1s", SeedFrom: "triad/DRAM/1s", Spec: mk("TRIAD L3", l3Elems)},
	}
}

// TestRunPlanChainDeterminism is the chained-plan determinism suite: the
// winners and values of a seeded chain must be bit-identical to the same
// sweeps run unchained, across serial and concurrent schedules — only
// pruning counts and sample totals may move, and only toward more
// pruning / fewer samples.
func TestRunPlanChainDeterminism(t *testing.T) {
	const seed = 1021
	baseline, err := runSpecs(context.Background(), testRunner(true), []Spec{
		chainNodes(seed)[0].Spec, chainNodes(seed)[1].Spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		runner *Runner
	}{
		{"serial", testRunner(true)},
		{"concurrent", testRunner(false)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			outs, err := mode.runner.RunPlan(context.Background(), chainNodes(seed))
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != 2 {
				t.Fatalf("outcomes: %d", len(outs))
			}
			for i, out := range outs {
				want := baseline[i]
				if out.Result.Best.Key != want.Result.Best.Key || out.BestValue() != want.BestValue() {
					t.Fatalf("%s: winner %s (%v), unchained %s (%v): chaining must not change winners",
						out.Name, out.Result.Best.Key, out.BestValue(),
						want.Result.Best.Key, want.BestValue())
				}
				if out.Result.BestPruned {
					t.Fatalf("%s: winner flagged as salvage in a well-ordered chain", out.Name)
				}
			}
			// The chain's knowledge can only add pruning, never remove it
			// (the dependent sweep starts with a measured lower bound).
			if outs[1].Result.PrunedCount < baseline[1].Result.PrunedCount {
				t.Fatalf("chained pruning %d < unchained %d", outs[1].Result.PrunedCount, baseline[1].Result.PrunedCount)
			}
			if outs[1].Result.TotalSamples > baseline[1].Result.TotalSamples {
				t.Fatalf("chained samples %d > unchained %d", outs[1].Result.TotalSamples, baseline[1].Result.TotalSamples)
			}
			// Seeding provenance.
			if outs[0].SeededFrom != "" || outs[0].ID != "triad/DRAM/1s" {
				t.Fatalf("root outcome mislabelled: %+v", outs[0])
			}
			if outs[1].SeededFrom != "triad/DRAM/1s" || outs[1].SeedValue != outs[0].BestValue() {
				t.Fatalf("dependent outcome not seeded by the root winner: SeededFrom=%q SeedValue=%v (root %v)",
					outs[1].SeededFrom, outs[1].SeedValue, outs[0].BestValue())
			}
		})
	}
}

// TestRunPlanSeedHook checks the SweepSeeded hook fires once per seeded
// edge with the dependency's winner.
func TestRunPlanSeedHook(t *testing.T) {
	r := testRunner(false)
	var (
		mu    sync.Mutex
		seeds []string
	)
	r.Hooks.SweepSeeded = func(id, from string, value float64) {
		mu.Lock()
		defer mu.Unlock()
		seeds = append(seeds, fmt.Sprintf("%s<-%s@%v", id, from, value > 0))
	}
	outs, err := r.RunPlan(context.Background(), chainNodes(1021))
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 1 || seeds[0] != "triad/L3/1s<-triad/DRAM/1s@true" {
		t.Fatalf("seed hook calls: %v", seeds)
	}
	if outs[1].SeedValue <= 0 {
		t.Fatalf("seed value: %v", outs[1].SeedValue)
	}
}

// TestRunPlanOverPrunedSeed chains in the wrong direction — a fast sweep
// seeding a slow one — so every dependent configuration is outer-pruned;
// the dependent outcome must surface the salvage flag rather than posing
// as a measurement.
func TestRunPlanOverPrunedSeed(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, elems []int) Spec {
		eng := bench.NewSimEngine(sys, 1021)
		var cases []bench.Case
		for _, n := range elems {
			cases = append(cases, eng.TriadCase(n, hw.AffinityClose, 1))
		}
		return Spec{Name: name, Clock: eng.Clock, Cases: cases}
	}
	nodes := []Node{
		{ID: "l3", Spec: mk("L3", []int{1 << 18, 1 << 19})},
		{ID: "dram", SeedFrom: "l3", Spec: mk("DRAM", []int{1 << 24, 1 << 25})},
	}
	outs, err := testRunner(true).RunPlan(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !outs[1].Result.BestPruned {
		t.Fatalf("DRAM sweep seeded with an L3 winner must be fully outer-pruned: %+v", outs[1].Result)
	}
	if outs[1].Result.Best == nil {
		t.Fatal("salvage value missing")
	}
}

func TestRunPlanDependencyFailure(t *testing.T) {
	nodes := []Node{
		{ID: "broken", Spec: Spec{Name: "broken", Clock: vclock.NewVirtual(), Cases: []bench.Case{failingCase{}}}},
		{ID: "child", SeedFrom: "broken", Spec: flopsSpec("child")},
	}
	_, err := testRunner(false).RunPlan(context.Background(), nodes)
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("err = %v, want the root failure", err)
	}
	// The child never ran: its engine clock is still at zero.
	if nodes[1].Spec.Clock.Now() != 0 {
		t.Fatal("dependent sweep ran despite its dependency failing")
	}
}

func TestRunPlanRejectsMalformedGraph(t *testing.T) {
	nodes := []Node{{ID: "a", SeedFrom: "nope", Spec: flopsSpec("a")}}
	if _, err := testRunner(false).RunPlan(context.Background(), nodes); err == nil {
		t.Fatal("malformed graph must be rejected before anything runs")
	}
	if nodes[0].Spec.Clock.Now() != 0 {
		t.Fatal("sweep ran under a malformed graph")
	}
	if _, err := testRunner(false).RunPlan(context.Background(), nil); err == nil {
		t.Fatal("empty plan must error")
	}
}

func TestRunPlanCancellation(t *testing.T) {
	for _, serial := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		r := testRunner(serial)
		var once sync.Once
		r.Hooks.CaseEvaluated = func(string, *bench.Outcome) { once.Do(cancel) }
		_, err := r.RunPlan(ctx, chainNodes(1021))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("serial=%v: err = %v, want context.Canceled", serial, err)
		}
		cancel()
	}
}
