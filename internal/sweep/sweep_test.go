package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/hw"
	"rooftune/internal/vclock"
)

// testSpace is a small DGEMM space that keeps the sim sweeps fast while
// still having a non-trivial winner.
var testSpace = []core.Dims{
	{N: 512, M: 512, K: 128},
	{N: 1024, M: 512, K: 128},
	{N: 1024, M: 1024, K: 256},
	{N: 2048, M: 1024, K: 128},
}

// buildSpecs creates one independent DGEMM sweep per socket configuration
// plus one TRIAD sweep, each with its own engine and clock.
func buildSpecs(t *testing.T, sys hw.System, seed uint64) []Spec {
	t.Helper()
	var specs []Spec
	for _, sockets := range []int{1, sys.Sockets} {
		eng := bench.NewSimEngine(sys, seed)
		cases := make([]bench.Case, len(testSpace))
		for i, d := range testSpace {
			cases[i] = eng.DGEMMCase(d.N, d.M, d.K, sockets)
		}
		specs = append(specs, Spec{
			Name:  fmt.Sprintf("dgemm-%d", sockets),
			Clock: eng.Clock,
			Cases: cases,
		})
	}
	eng := bench.NewSimEngine(sys, seed)
	var triad []bench.Case
	for _, elems := range []int{1 << 14, 1 << 18, 1 << 22} {
		triad = append(triad, eng.TriadCase(elems, hw.AffinityClose, 1))
	}
	specs = append(specs, Spec{Name: "triad", Clock: eng.Clock, Cases: triad})
	return specs
}

// testRunner builds a runner with a quick budget; serial pins the host
// budget to one sweep at a time.
func testRunner(serial bool) *Runner {
	b := bench.DefaultBudget().WithFlags(true, true, true)
	b.Invocations = 2
	b.MaxIterations = 20
	r := &Runner{Budget: b}
	if serial {
		r.Host = 1
	}
	return r
}

// runSpecs runs specs as a plan graph with no dependency edges, one node
// per spec under the spec's name.
func runSpecs(ctx context.Context, r *Runner, specs []Spec) ([]Outcome, error) {
	nodes := make([]Node, len(specs))
	for i, s := range specs {
		nodes[i] = Node{ID: s.Name, Spec: s}
	}
	return r.RunPlan(ctx, nodes)
}

func TestRunParallelDeterminism(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := runSpecs(context.Background(), testRunner(true), buildSpecs(t, sys, 1021))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runSpecs(context.Background(), testRunner(false), buildSpecs(t, sys, 1021))
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identical: every outcome — winner configs, all means, sample
	// counts, virtual elapsed times — must match exactly.
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestRunTypedWinners(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := runSpecs(context.Background(), testRunner(false), buildSpecs(t, sys, 1021))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outcomes: %d", len(outs))
	}
	for _, out := range outs[:2] {
		cfg, ok := out.Best.(bench.DGEMMConfig)
		if !ok {
			t.Fatalf("%s: winner has config %T", out.Name, out.Best)
		}
		if (core.ConfigDims(cfg) == core.Dims{}) {
			t.Fatalf("%s: zero dims from typed config", out.Name)
		}
		if _, err := out.Triad(); err == nil {
			t.Fatalf("%s: DGEMM winner must not convert to TRIAD", out.Name)
		}
		// The typed config must identify the same case the tuner ranked
		// best, not a re-parse of the key.
		if want := out.Result.Best.Config; cfg != want {
			t.Fatalf("%s: Best = %+v, outcome config %+v", out.Name, cfg, want)
		}
	}
	tcfg, err := outs[2].Triad()
	if err != nil {
		t.Fatal(err)
	}
	if tcfg.Elements <= 0 {
		t.Fatalf("triad winner elements = %d", tcfg.Elements)
	}
}

func TestRunEmptySpecs(t *testing.T) {
	if _, err := runSpecs(context.Background(), testRunner(false), nil); err == nil {
		t.Fatal("no specs must error")
	}
	spec := Spec{Name: "empty", Clock: vclock.NewVirtual()}
	if _, err := runSpecs(context.Background(), testRunner(false), []Spec{spec}); err == nil {
		t.Fatal("empty case list must error")
	}
}

type failingCase struct{}

func (failingCase) Key() string          { return "fail" }
func (failingCase) Config() bench.Config { return nil }
func (failingCase) Describe() string     { return "fail" }
func (failingCase) Metric() bench.Metric { return bench.MetricFlops }
func (failingCase) NewInvocation(int) (bench.Instance, error) {
	return nil, fmt.Errorf("boom")
}

func TestRunErrorPropagation(t *testing.T) {
	specs := []Spec{{
		Name:  "broken",
		Clock: vclock.NewVirtual(),
		Cases: []bench.Case{failingCase{}},
	}}
	_, err := runSpecs(context.Background(), testRunner(false), specs)
	if err == nil {
		t.Fatal("engine failure must propagate")
	}
}

func TestRunSerialFailsFast(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	eng := bench.NewSimEngine(sys, 1021)
	specs := []Spec{
		{Name: "broken", Clock: vclock.NewVirtual(), Cases: []bench.Case{failingCase{}}},
		{Name: "after", Clock: eng.Clock, Cases: []bench.Case{eng.DGEMMCase(512, 512, 128, 1)}},
	}
	if _, err := runSpecs(context.Background(), testRunner(true), specs); err == nil {
		t.Fatal("engine failure must propagate")
	}
	// Serial execution must not keep benchmarking doomed sweeps after the
	// failure: the second spec's engine clock never advanced.
	if eng.Clock.Now() != 0 {
		t.Fatalf("sweep after failure still ran: clock = %v", eng.Clock.Now())
	}
}

func TestOutcomeElapsedAccountsSweepCost(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := runSpecs(context.Background(), testRunner(true), buildSpecs(t, sys, 1021))
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, out := range outs {
		if out.Result.Elapsed <= 0 {
			t.Fatalf("%s: elapsed = %v", out.Name, out.Result.Elapsed)
		}
		total += out.Result.Elapsed
	}
	if total <= 0 {
		t.Fatal("total sweep time must be positive virtual time")
	}
}

func TestRunPreCanceled(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := buildSpecs(t, sys, 1021)
	if _, err := runSpecs(ctx, testRunner(false), specs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Nothing may have run: every engine clock is still at zero.
	for _, s := range specs {
		if s.Clock.Now() != 0 {
			t.Fatalf("sweep %s ran under a pre-canceled context", s.Name)
		}
	}
}

func TestRunHooks(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		started []string
		cases   int
		won     []string
	)
	r := testRunner(false)
	r.Hooks = Hooks{
		SweepStarted: func(name string, n int) {
			mu.Lock()
			defer mu.Unlock()
			started = append(started, name)
			if n <= 0 {
				t.Errorf("sweep %s started with %d cases", name, n)
			}
		},
		CaseEvaluated: func(name string, out *bench.Outcome) {
			mu.Lock()
			defer mu.Unlock()
			cases++
			if out == nil || out.Describe == "" {
				t.Errorf("sweep %s delivered a malformed outcome", name)
			}
		},
		SweepWon: func(o *Outcome) {
			mu.Lock()
			defer mu.Unlock()
			won = append(won, o.Name)
			if o.Best == nil {
				t.Errorf("sweep %s won without a typed config", o.Name)
			}
		},
	}
	specs := buildSpecs(t, sys, 1021)
	if _, err := runSpecs(context.Background(), r, specs); err != nil {
		t.Fatal(err)
	}
	if len(started) != len(specs) || len(won) != len(specs) {
		t.Fatalf("started %d, won %d, want %d each", len(started), len(won), len(specs))
	}
	if cases < len(specs) {
		t.Fatalf("case hook fired %d times for %d sweeps", cases, len(specs))
	}
}
