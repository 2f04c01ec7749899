package rooftune

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/hw"
	"rooftune/internal/sweep"
	"rooftune/internal/units"
	"rooftune/internal/vclock"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		opts    []Option
		wantErr string
	}{
		{"no target", nil, "no target"},
		{"two targets", []Option{WithSystem("Gold 6148"), WithNative()}, "mutually exclusive"},
		{"native then system", []Option{WithNative(), WithSystem("Gold 6148")}, "mutually exclusive"},
		{"unknown system", []Option{WithSystem("warp-drive")}, "warp-drive"},
		{"invalid system spec", []Option{WithSystemSpec(hw.System{Name: "broken"})}, "non-positive"},
		{"empty space", []Option{WithSystem("Gold 6148"), WithSpace(nil)}, "empty search space"},
		{"negative threads", []Option{WithNative(), WithThreads(-2)}, "negative thread count"},
		{"inverted triad bounds", []Option{
			WithSystem("Gold 6148"), WithTriadRange(8*units.MiB, 2*units.MiB),
		}, "inverted TRIAD"},
		{"triad lo above default hi", []Option{
			WithSystem("Gold 6148"), WithTriadRange(900*units.MiB, 0),
		}, "inverted TRIAD"},
		{"unknown workload", []Option{WithSystem("Gold 6148"), WithWorkloads("warp-kernel")}, `"warp-kernel"`},
		{"spmv nnz above dimension", []Option{WithSystem("Gold 6148"), WithSpMVShape(64, 128)}, "exceeds matrix dimension"},
		{"negative spmv shape", []Option{WithSystem("Gold 6148"), WithSpMVShape(-1, 16)}, "negative shape"},
		{"degenerate stencil grid", []Option{WithSystem("Gold 6148"), WithStencilGrid(2, 512)}, "too small"},
		{"negative stencil grid", []Option{WithSystem("Gold 6148"), WithStencilGrid(-4, 512)}, "negative grid"},
		{"empty workloads", []Option{WithSystem("Gold 6148"), WithWorkloads()}, "no workloads"},
		{"no triad levels", []Option{WithSystem("Gold 6148"), WithTriadLevels()}, "no residency levels"},
		{"unknown triad level", []Option{WithSystem("Gold 6148"), WithTriadLevels("L7")}, `"L7"`},
		{"duplicate triad level", []Option{WithSystem("Gold 6148"), WithTriadLevels("L2", "L2")}, "twice"},
		{"native triad levels", []Option{WithNative(), WithTriadLevels("L1", "L2")}, "simulated target"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts...)
			if err == nil {
				t.Fatalf("New(%s) must error", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func tinySessionOptions() []Option {
	return []Option{
		WithSystemSpec(tinySystem()),
		WithSpace([]core.Dims{
			{N: 512, M: 512, K: 128}, {N: 1024, M: 1024, K: 128},
			{N: 2048, M: 2048, K: 128},
		}),
		WithTriadRange(16*units.KiB, 256*units.MiB),
	}
}

// TestSpMVStencilSession runs the two §VII workloads end to end on a
// simulated system and pins the acceptance contract: each lands a
// FLOP/s-metered winner whose operational intensity is strictly between
// TRIAD's and DGEMM's, carried onto the roofline as an application point
// rather than a compute ceiling.
func TestSpMVStencilSession(t *testing.T) {
	sess, err := New(
		WithSystem("Gold 6148"),
		WithWorkloads("spmv", "stencil"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := hw.Get("Gold 6148")
	if want := 2 * len(sys.SocketConfigs()); len(res.Compute) != want || len(res.Memory) != 0 {
		t.Fatalf("points: %d compute, %d memory, want %d compute only",
			len(res.Compute), len(res.Memory), want)
	}
	labels := map[string]int{}
	minDGEMM := units.DGEMMIntensity(500, 500, 64) // smallest intensity in any built-in DGEMM space
	for _, c := range res.Compute {
		labels[c.Label]++
		if c.Flops <= 0 {
			t.Fatalf("%s point has no throughput: %+v", c.Label, c)
		}
		if c.Intensity <= units.TriadIntensity || c.Intensity >= minDGEMM {
			t.Fatalf("%s intensity %v not strictly between TRIAD's %v and DGEMM's %v",
				c.Label, c.Intensity, units.TriadIntensity, minDGEMM)
		}
		if c.Dims != (core.Dims{}) {
			t.Fatalf("%s point carries DGEMM dims: %+v", c.Label, c)
		}
		if c.Desc == "" || c.Config == nil {
			t.Fatalf("%s point missing winner identity: %+v", c.Label, c)
		}
		switch c.Label {
		case "SpMV":
			cfg, ok := c.Config.(bench.SpMVConfig)
			if !ok || cfg.ChunkRows <= 0 {
				t.Fatalf("SpMV config = %#v", c.Config)
			}
		case "stencil":
			cfg, ok := c.Config.(bench.StencilConfig)
			if !ok || cfg.TileX <= 0 || cfg.TileY <= 0 {
				t.Fatalf("stencil config = %#v", c.Config)
			}
		default:
			t.Fatalf("unexpected label %q", c.Label)
		}
	}
	if labels["SpMV"] != len(sys.SocketConfigs()) || labels["stencil"] != len(sys.SocketConfigs()) {
		t.Fatalf("labels = %v", labels)
	}
	// The winners are application points, never ceilings; with no memory
	// sweeps there is no TRIAD point either (it would be zero-valued).
	if len(res.Roofline.Compute) != 0 || len(res.Roofline.Points) != len(res.Compute) {
		t.Fatalf("roofline: %d ceilings, %d points", len(res.Roofline.Compute), len(res.Roofline.Points))
	}
	again, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("equal seeds must reproduce identical Results")
	}
}

// TestChainedTriadLevels is the acceptance test for the per-level
// cache-aware roofline and cross-sweep incumbent chaining: a simulated
// session with all four residency regions produces a bandwidth ceiling
// per level in decreasing order L1 >= L2 >= L3 >= DRAM, renders every
// ceiling in the text and gnuplot output, and the chained run's winners
// and values are bit-identical to the unchained run (chaining may only
// change search cost).
func TestChainedTriadLevels(t *testing.T) {
	opts := func(chain bool, events *[]Event) []Option {
		o := []Option{
			WithSystem("Gold 6148"),
			WithTriadLevels("L1", "L2", "L3", "DRAM"),
			WithSweepChaining(chain),
			// A small DGEMM space keeps the run interactive; the memory
			// side — the subject here — is the full per-level sweep.
			WithSpace([]core.Dims{{N: 512, M: 512, K: 128}, {N: 2048, M: 2048, K: 128}}),
		}
		if events != nil {
			o = append(o, WithProgress(func(ev Event) { *events = append(*events, ev) }))
		}
		return o
	}
	var events []Event
	chained, err := New(opts(true, &events)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chained.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	sys, _ := hw.Get("Gold 6148")
	levels := []string{"L1", "L2", "L3", "DRAM"}
	if want := len(levels) * len(sys.SocketConfigs()); len(res.Memory) != want {
		t.Fatalf("memory points: %d, want %d (%v)", len(res.Memory), want, res.Memory)
	}
	byConfig := map[int]map[string]MemoryPoint{}
	for _, m := range res.Memory {
		if byConfig[m.Sockets] == nil {
			byConfig[m.Sockets] = map[string]MemoryPoint{}
		}
		byConfig[m.Sockets][m.Region] = m
		if m.Bandwidth <= 0 || m.Elements <= 0 {
			t.Fatalf("malformed memory point %+v", m)
		}
	}
	for _, sockets := range sys.SocketConfigs() {
		pts := byConfig[sockets]
		for i := 1; i < len(levels); i++ {
			hi, lo := pts[levels[i-1]], pts[levels[i]]
			if hi.Bandwidth < lo.Bandwidth {
				t.Fatalf("%d socket(s): %s bandwidth %v below %s %v — the hierarchy must be monotone",
					sockets, levels[i-1], hi.Bandwidth, levels[i], lo.Bandwidth)
			}
		}
	}

	// Every per-level ceiling renders in the text and gnuplot output.
	ascii := res.Roofline.RenderASCII(76, 20)
	gnuplot := res.Roofline.RenderGnuplot()
	for _, lv := range levels {
		for _, sockets := range sys.SocketConfigs() {
			name := fmt.Sprintf("%s, %d socket(s)", lv, sockets)
			if !strings.Contains(ascii, name) {
				t.Fatalf("ASCII render missing ceiling %q:\n%s", name, ascii)
			}
			if !strings.Contains(gnuplot, fmt.Sprintf("%q", name)) {
				t.Fatalf("gnuplot render missing ceiling %q:\n%s", name, gnuplot)
			}
		}
	}

	// Chaining is observable: one seeding per dependent level per socket
	// configuration, each naming its source sweep and a positive seed.
	seeded := 0
	for _, ev := range events {
		if ev.Kind != EventSweepSeeded {
			continue
		}
		seeded++
		if ev.Sweep == "" || ev.From == "" || ev.Value <= 0 || ev.Unit != "GB/s" {
			t.Fatalf("malformed sweep-seeded event: %+v", ev)
		}
	}
	if want := (len(levels) - 1) * len(sys.SocketConfigs()); seeded != want {
		t.Fatalf("sweep-seeded events: %d, want %d", seeded, want)
	}

	// The chained run's tuned points are bit-identical to the unchained
	// run's: seeding prunes search cost, never winners. (PrunedCount and
	// TotalSamples movement is asserted one level down, in the sweep
	// package's chain determinism suite.)
	unchained, err := New(opts(false, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	base, err := unchained.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Memory, base.Memory) {
		t.Fatalf("chained memory points diverged from unchained:\nchained:   %+v\nunchained: %+v", res.Memory, base.Memory)
	}
	if !reflect.DeepEqual(res.Compute, base.Compute) {
		t.Fatalf("chained compute points diverged from unchained:\nchained:   %+v\nunchained: %+v", res.Compute, base.Compute)
	}
	if len(res.Warnings) != 0 || len(base.Warnings) != 0 {
		t.Fatalf("warnings: chained %v, unchained %v", res.Warnings, base.Warnings)
	}
}

// overChainWorkload chains two same-metric sweeps in the wrong direction
// (a fast region seeding a slow one), so the dependent sweep's every
// configuration is outer-pruned under chaining: the session must surface
// the salvage value loudly.
type overChainWorkload struct{}

func (overChainWorkload) Name() string { return "over-chain" }

func (overChainWorkload) Plan(t Target, p Params) (Plan, error) {
	var plan Plan
	mk := func(elems ...int) sweep.Spec {
		eng := bench.NewSimEngine(*t.Sys, p.Seed)
		var cases []bench.Case
		for _, n := range elems {
			cases = append(cases, eng.TriadCase(n, hw.AffinityClose, 1))
		}
		return sweep.Spec{Name: fmt.Sprintf("over-chain %d", len(plan.Sweeps)), Clock: eng.Clock, Cases: cases}
	}
	plan.Add("over-chain/fast", mk(1<<16, 1<<17), Point{Sockets: 1, Region: "L3"})
	plan.Chain("over-chain/slow", "over-chain/fast", mk(1<<22, 1<<23), Point{Sockets: 1, Region: "DRAM"})
	return plan, nil
}

var overChainOnce sync.Once

func TestChainedOverPruningSurfaces(t *testing.T) {
	overChainOnce.Do(func() {
		if err := RegisterWorkload(overChainWorkload{}); err != nil {
			t.Fatal(err)
		}
	})
	sess, err := New(
		WithSystemSpec(tinySystem()),
		WithWorkloads("over-chain"),
		WithSweepChaining(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range res.Warnings {
		found = found || strings.Contains(w, "outer-pruned")
	}
	if !found {
		t.Fatalf("over-pruned chained sweep must warn, got warnings %v", res.Warnings)
	}
	// The salvage value still lands (flagged), so the result is complete.
	if len(res.Memory) != 2 {
		t.Fatalf("memory points: %+v", res.Memory)
	}
}

// badGraphWorkload plans a dangling SeedFrom edge; sessions must reject
// it at New, not mid-run.
type badGraphWorkload struct{}

func (badGraphWorkload) Name() string { return "bad-graph" }

func (badGraphWorkload) Plan(t Target, p Params) (Plan, error) {
	var plan Plan
	eng := bench.NewSimEngine(*t.Sys, p.Seed)
	plan.Chain("bad/a", "ghost", sweep.Spec{
		Name: "bad", Clock: eng.Clock,
		Cases: []bench.Case{eng.TriadCase(1<<16, hw.AffinityClose, 1)},
	}, Point{Sockets: 1, Region: "L3"})
	return plan, nil
}

var badGraphOnce sync.Once

func TestNewRejectsMalformedPlanGraph(t *testing.T) {
	badGraphOnce.Do(func() {
		if err := RegisterWorkload(badGraphWorkload{}); err != nil {
			t.Fatal(err)
		}
	})
	_, err := New(WithSystemSpec(tinySystem()), WithWorkloads("bad-graph"))
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("New must reject the dangling edge at construction, got %v", err)
	}
}

func TestSessionEvents(t *testing.T) {
	var events []Event
	sess, err := New(append(tinySessionOptions(), WithProgress(func(ev Event) {
		events = append(events, ev)
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sweeps := len(res.Compute) + len(res.Memory)
	counts := map[EventKind]int{}
	seenStart := map[string]bool{}
	for _, ev := range events {
		counts[ev.Kind]++
		switch ev.Kind {
		case EventSweepStarted:
			if ev.Sweep == "" || ev.Cases <= 0 {
				t.Fatalf("malformed sweep-started event: %+v", ev)
			}
			seenStart[ev.Sweep] = true
		case EventCaseEvaluated:
			if !seenStart[ev.Sweep] {
				t.Fatalf("case-evaluated before sweep-started for %q", ev.Sweep)
			}
			if ev.Case == "" || ev.Unit == "" {
				t.Fatalf("malformed case-evaluated event: %+v", ev)
			}
		case EventSweepWon:
			if !seenStart[ev.Sweep] {
				t.Fatalf("sweep-won before sweep-started for %q", ev.Sweep)
			}
			if ev.Value <= 0 || ev.Elapsed <= 0 {
				t.Fatalf("malformed sweep-won event: %+v", ev)
			}
		}
	}
	if counts[EventSweepStarted] != sweeps || counts[EventSweepWon] != sweeps {
		t.Fatalf("sweep events: started %d, won %d, want %d each",
			counts[EventSweepStarted], counts[EventSweepWon], sweeps)
	}
	if counts[EventCaseEvaluated] < sweeps { // at least one case per sweep
		t.Fatalf("case events: %d for %d sweeps", counts[EventCaseEvaluated], sweeps)
	}
}

func TestEmptyRegionWarning(t *testing.T) {
	// tinySystem has 8 MiB of L3; the DRAM region needs working sets of
	// at least 4x L3 = 32 MiB, so capping the sweep at 16 MiB leaves it
	// without a single case. That must be loud: a warning on the Result,
	// an EventRegionEmpty, a warning line in the Summary — not a roofline
	// silently missing its DRAM ceiling.
	var empties []Event
	sess, err := New(
		WithSystemSpec(tinySystem()),
		WithSpace([]core.Dims{{N: 512, M: 512, K: 128}}),
		WithTriadRange(16*units.KiB, 16*units.MiB),
		WithProgress(func(ev Event) {
			if ev.Kind == EventRegionEmpty {
				empties = append(empties, ev)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "DRAM") {
		t.Fatalf("warnings = %v, want one naming DRAM", res.Warnings)
	}
	if len(empties) != 1 || empties[0].Warning != res.Warnings[0] {
		t.Fatalf("region-empty events = %+v, want one matching %q", empties, res.Warnings[0])
	}
	for _, m := range res.Memory {
		if m.Region == "DRAM" {
			t.Fatalf("DRAM point present despite empty region: %+v", m)
		}
	}
	if !strings.Contains(res.Summary(), "warning: ") {
		t.Fatalf("summary must surface the warning:\n%s", res.Summary())
	}
}

// blockingWorkload plans a single one-case sweep whose kernel parks in
// Step until the test releases it. Cancellation tests get a deterministic
// mid-sweep hook this way: progress events are delivered asynchronously
// (a drainer goroutine), so cancelling from a callback can race with run
// completion, but a kernel blocked inside Step cannot finish early.
type blockingWorkload struct {
	entered chan struct{}
	release chan struct{}
}

func (w *blockingWorkload) Name() string { return "block" }

func (w *blockingWorkload) Plan(Target, Params) (Plan, error) {
	clock := vclock.NewVirtual()
	var p Plan
	p.Add("block/1s", sweep.Spec{
		Name:  "block",
		Clock: clock,
		Cases: []bench.Case{&blockCase{clock: clock, entered: w.entered, release: w.release}},
	}, Point{Compute: true, Sockets: 1})
	return p, nil
}

type blockCase struct {
	clock   *vclock.Virtual
	entered chan struct{}
	release chan struct{}
}

func (c *blockCase) Key() string          { return "block" }
func (c *blockCase) Config() bench.Config { return bench.DGEMMConfig{N: 1, M: 1, K: 1, Sockets: 1} }
func (c *blockCase) Describe() string     { return "blocking case" }
func (c *blockCase) Metric() bench.Metric { return bench.MetricFlops }
func (c *blockCase) NewInvocation(int) (bench.Instance, error) {
	return &blockInstance{c: c}, nil
}

type blockInstance struct{ c *blockCase }

func (i *blockInstance) Warmup() {}
func (i *blockInstance) Step() time.Duration {
	select {
	case i.c.entered <- struct{}{}:
	default:
	}
	<-i.c.release
	i.c.clock.Advance(time.Millisecond)
	return time.Millisecond
}
func (i *blockInstance) Work() float64 { return 1e9 }
func (i *blockInstance) Close()        {}

var (
	blockWL     = &blockingWorkload{}
	blockWLOnce sync.Once
)

// installBlockingWorkload registers the "block" workload once per process
// and arms fresh channels for this test.
func installBlockingWorkload(t *testing.T) *blockingWorkload {
	t.Helper()
	var regErr error
	blockWLOnce.Do(func() { regErr = RegisterWorkload(blockWL) })
	if regErr != nil {
		t.Fatal(regErr)
	}
	blockWL.entered = make(chan struct{}, 1)
	blockWL.release = make(chan struct{})
	return blockWL
}

func TestRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	w := installBlockingWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess, err := New(WithSystemSpec(tinySystem()), WithWorkloads("block"))
	if err != nil {
		t.Fatal(err)
	}
	type runResult struct {
		res *Result
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		res, err := sess.Run(ctx)
		done <- runResult{res, err}
	}()
	<-w.entered // a kernel execution is in flight: mid-sweep by construction
	cancel()
	close(w.release)
	got := <-done
	res, err := got.res, got.err
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err.Error() != context.Canceled.Error() {
		t.Fatalf("Run must return ctx.Err() itself, got %q", err)
	}
	if res != nil {
		t.Fatalf("canceled run produced a partial result: %+v", res)
	}
	// No sweep goroutine may outlive Run. Allow the runtime a moment to
	// retire finished goroutines before comparing. Polling the real clock
	// here is out-of-band test synchronization, not measurement.
	//rooflint:allow nodeterminism -- real deadline for a real-goroutine leak check
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		//rooflint:allow nodeterminism -- same leak-check deadline poll
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond) //rooflint:allow nodeterminism -- back-off between leak-check polls
	}
}

func TestRunPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess, err := New(tinySessionOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSessionRerunDeterministic(t *testing.T) {
	sess, err := New(tinySessionOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-run diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

func TestAssembleResultFlagsSalvagedWinner(t *testing.T) {
	// A sweep whose every configuration was outer-pruned reports a
	// truncated partial mean as its best; the session must say so instead
	// of letting the salvage value pose as a measurement.
	out := &bench.Outcome{
		Key:    "dgemm/1/512x512x128",
		Config: bench.DGEMMConfig{N: 512, M: 512, K: 128, Sockets: 1},
		Metric: bench.MetricFlops,
		Mean:   1e9,
		Pruned: true,
	}
	sweeps := []sweep.Outcome{{
		Name:   "dgemm-1",
		Result: &core.Result{Best: out, BestPruned: true, All: []*bench.Outcome{out}, PrunedCount: 1},
		Best:   out.Config,
	}}
	points := []Point{{Compute: true, Sockets: 1}}
	res, err := assembleResult(&Result{SystemName: "test", Engine: "sim:test"}, sweeps, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "outer-pruned") {
		t.Fatalf("warnings = %v, want one flagging the salvaged winner", res.Warnings)
	}
	if !strings.Contains(res.Summary(), "outer-pruned") {
		t.Fatalf("summary must surface the salvage warning:\n%s", res.Summary())
	}
}

func TestWorkloadSelection(t *testing.T) {
	sess, err := New(append(tinySessionOptions(), WithWorkloads("dgemm"))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Compute) != 1 || len(res.Memory) != 0 {
		t.Fatalf("dgemm-only session: %d compute, %d memory points", len(res.Compute), len(res.Memory))
	}
	names := WorkloadNames()
	for _, want := range []string{"dgemm", "triad"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("built-in workload %q not registered: %v", want, names)
		}
	}
}

func TestRegisterWorkloadRejectsDuplicate(t *testing.T) {
	// The registry is process-global, so each invocation (-count=N)
	// registers a fresh name.
	w := dupWorkload{name: fmt.Sprintf("test-dup-%d", dupSeq.Add(1))}
	if err := RegisterWorkload(w); err != nil {
		t.Fatal(err)
	}
	if err := RegisterWorkload(w); err == nil {
		t.Fatal("duplicate registration must error")
	}
}

// dupSeq numbers the registry-duplicate test's workloads.
var dupSeq atomic.Int64

type dupWorkload struct{ name string }

func (w dupWorkload) Name() string { return w.name }
func (dupWorkload) Plan(Target, Params) (Plan, error) {
	return Plan{}, fmt.Errorf("never planned")
}
