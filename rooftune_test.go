package rooftune

import (
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/hw"
	"rooftune/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runSession builds a session from opts and runs it to completion.
func runSession(t *testing.T, opts ...Option) *Result {
	t.Helper()
	sess, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulatedGold6148(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning run")
	}
	res := runSession(t, WithSystem("Gold 6148"))
	if res.SystemName != "Gold 6148" || !strings.Contains(res.Engine, "sim") {
		t.Fatalf("result header: %+v", res)
	}
	if len(res.Compute) != 2 {
		t.Fatalf("compute points: %d", len(res.Compute))
	}
	// Single-socket peak must match Table IV within 2%.
	c1 := res.Compute[0]
	if c1.Sockets != 1 {
		t.Fatalf("first compute point sockets = %d", c1.Sockets)
	}
	if math.Abs(c1.Flops.GFLOPS()-1422.24)/1422.24 > 0.02 {
		t.Fatalf("S1 peak = %v", c1.Flops)
	}
	if c1.Dims != (core.Dims{N: 4000, M: 512, K: 128}) {
		t.Fatalf("S1 dims = %v", c1.Dims)
	}
	if c1.Theoretical.GFLOPS() != 1536 {
		t.Fatalf("S1 theoretical = %v", c1.Theoretical)
	}
	// Memory points: both regions for both socket configs.
	regions := map[string]int{}
	for _, m := range res.Memory {
		regions[m.Region]++
		if m.Bandwidth <= 0 || m.Elements <= 0 {
			t.Fatalf("memory point %+v", m)
		}
	}
	if regions["DRAM"] != 2 || regions["L3"] != 2 {
		t.Fatalf("memory regions: %v", regions)
	}
	if res.Roofline == nil || res.Roofline.Validate() != nil {
		t.Fatal("roofline must validate")
	}
	if res.SearchTime <= 0 {
		t.Fatal("search time must be positive (virtual)")
	}
	summary := res.Summary()
	for _, frag := range []string{"Gold 6148", "DGEMM   1 socket", "DRAM"} {
		if !strings.Contains(summary, frag) {
			t.Fatalf("summary missing %q:\n%s", frag, summary)
		}
	}
}

func TestSimulatedUnknownSystem(t *testing.T) {
	if _, err := New(WithSystem("warp-drive")); err == nil {
		t.Fatal("unknown system must error")
	}
}

func TestSimulatedCustomSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning run")
	}
	sys := hw.System{
		Name: "tiny", FreqGHz: 3, CoresPerSocket: 4, Vector: hw.AVX2,
		FMAUnits: 2, Sockets: 1, DRAMFreqMHz: 3200, DRAMChannels: 2,
		BytesPerCycle: 8, L3PerSocket: 8 * units.MiB,
		L2PerCore: 256 * units.KiB, L1PerCore: 32 * units.KiB,
	}
	// Small space for speed.
	res := runSession(t, WithSystemSpec(sys), WithSpace([]core.Dims{
		{N: 512, M: 512, K: 128}, {N: 1024, M: 1024, K: 128},
		{N: 2048, M: 2048, K: 128},
	}))
	if len(res.Compute) != 1 { // single socket system
		t.Fatalf("compute points: %d", len(res.Compute))
	}
	if res.Compute[0].Flops <= 0 {
		t.Fatal("tuned peak must be positive")
	}
}

func TestNativeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("real kernels")
	}
	budget := bench.DefaultBudget().WithFlags(true, true, true)
	budget.Invocations = 1
	budget.MaxIterations = 2
	budget.MaxTime = time.Second
	res := runSession(t,
		WithNative(),
		WithBudget(budget),
		WithThreads(2),
		WithSpace([]core.Dims{{N: 64, M: 64, K: 64}, {N: 128, M: 128, K: 64}}),
		WithTriadRange(24*units.KiB, 3*units.MiB),
		WithAssumedLLC(256*units.KiB),
	)
	if len(res.Compute) != 1 || res.Compute[0].Flops <= 0 {
		t.Fatalf("native compute: %+v", res.Compute)
	}
	if (res.Compute[0].Dims == core.Dims{}) {
		t.Fatal("native winning dims must not be zero")
	}
	if len(res.Memory) == 0 {
		t.Fatal("native memory points missing")
	}
	for _, m := range res.Memory {
		if m.Elements <= 0 {
			t.Fatalf("native memory point %s has no vector length: %+v", m.Region, m)
		}
	}
	if res.Roofline.Validate() != nil {
		t.Fatal("native roofline must validate")
	}
	summary := res.Summary()
	for _, frag := range []string{"host (engine native)", "DGEMM   1 socket"} {
		if !strings.Contains(summary, frag) {
			t.Fatalf("native summary missing %q:\n%s", frag, summary)
		}
	}
}

// tinySystem is a single-socket machine small enough for fast sweeps.
func tinySystem() hw.System {
	return hw.System{
		Name: "tiny", FreqGHz: 3, CoresPerSocket: 4, Vector: hw.AVX2,
		FMAUnits: 2, Sockets: 1, DRAMFreqMHz: 3200, DRAMChannels: 2,
		BytesPerCycle: 8, L3PerSocket: 8 * units.MiB,
		L2PerCore: 256 * units.KiB, L1PerCore: 32 * units.KiB,
	}
}

func TestSimulatedParallelDeterminism(t *testing.T) {
	serial := runSession(t, append(tinySessionOptions(), WithSerial())...)
	parallel := runSession(t, tinySessionOptions()...)
	// The concurrent sweeps must be bit-identical to the serial path:
	// same winners, same peaks, same virtual search time, same roofline.
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel result diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serial.SearchTime <= 0 {
		t.Fatal("virtual search time must be positive")
	}
}

// TestSimulatedWinningDims is the regression for the silently-zero Dims
// bug: the dims reported in Result.Compute must be the actual best case's
// typed configuration, never a zero value from a failed key re-parse.
func TestSimulatedWinningDims(t *testing.T) {
	sys := tinySystem()
	space := []core.Dims{
		{N: 512, M: 512, K: 128}, {N: 1024, M: 1024, K: 128},
		{N: 2048, M: 2048, K: 128},
	}
	res := runSession(t, WithSystemSpec(sys), WithSpace(space), WithSerial())
	if len(res.Compute) != 1 {
		t.Fatalf("compute points: %d", len(res.Compute))
	}
	got := res.Compute[0].Dims
	if (got == core.Dims{}) {
		t.Fatal("winning dims must not be zero")
	}
	// Re-run the same sweep independently and compare against the typed
	// winner of the tuner itself.
	eng := bench.NewSimEngine(sys, 1021)
	cases := make([]bench.Case, len(space))
	for i, d := range space {
		cases[i] = eng.DGEMMCase(d.N, d.M, d.K, 1)
	}
	b := bench.DefaultBudget().WithFlags(true, true, true)
	r, err := core.NewTuner(eng.Clock, b).Run(context.Background(), cases)
	if err != nil {
		t.Fatal(err)
	}
	want := core.ConfigDims(r.Best.Config.(bench.DGEMMConfig))
	if got != want {
		t.Fatalf("reported dims %v, actual best case %v", got, want)
	}
	for _, m := range res.Memory {
		if m.Elements <= 0 {
			t.Fatalf("memory point %s has no winning vector length: %+v", m.Region, m)
		}
	}
}

func TestResultSummary(t *testing.T) {
	res := &Result{
		SystemName: "demo",
		Engine:     "sim:demo",
		SearchTime: 90 * time.Second,
		Compute: []ComputePoint{{
			Sockets: 1, Dims: core.Dims{N: 4000, M: 512, K: 128},
			Flops: 1400e9, Theoretical: 1536e9,
		}},
		Memory: []MemoryPoint{
			{Sockets: 1, Region: "DRAM", Elements: 1 << 24, Bandwidth: 60e9, Theoretical: 76.8e9},
			{Sockets: 1, Region: "L3", Elements: 1 << 18, Bandwidth: 300e9},
		},
	}
	s := res.Summary()
	for _, frag := range []string{
		"demo (engine sim:demo), search time 90.00s",
		"compute 1 socket(s)",
		"n,m,k=4000,512,128",
		"of theoretical", // percent-of-theoretical rendering
		"DRAM",
		"L3",
		"N=16777216",
	} {
		if !strings.Contains(s, frag) {
			t.Fatalf("summary missing %q:\n%s", frag, s)
		}
	}
	// The L3 point has no theoretical peak, so exactly two points render
	// a percent-of-theoretical clause (compute + DRAM).
	if got := strings.Count(s, "of theoretical"); got != 2 {
		t.Fatalf("theoretical clauses = %d, want 2:\n%s", got, s)
	}
}

func TestNativeQuickSpaceShape(t *testing.T) {
	space := NativeQuickSpace()
	if len(space) != 4*3*3 {
		t.Fatalf("|space| = %d", len(space))
	}
	for _, d := range space {
		if d.N > 1024 || d.M > 1024 || d.K > 256 {
			t.Fatalf("native quick space too large: %v", d)
		}
	}
}

// TestNewDefaults pins the documented defaults New resolves: the paper
// seed, budget and union space for simulated targets, the interactive
// budget and quick space for native ones.
func TestNewDefaults(t *testing.T) {
	sim, err := New(WithSystem("Gold 6148"))
	if err != nil {
		t.Fatal(err)
	}
	d := sim.cfg
	if d.seed != 1021 || d.budget == nil || len(d.space) != 384 {
		t.Fatalf("simulated defaults: seed %d, budget %v, |space| %d", d.seed, d.budget, len(d.space))
	}
	if !d.budget.UseConfidence || !d.budget.UseInnerBound || !d.budget.UseOuterBound {
		t.Fatal("default budget must be the paper's best technique")
	}
	native, err := New(WithNative())
	if err != nil {
		t.Fatal(err)
	}
	n := native.cfg
	if n.budget.Invocations != 3 || len(n.space) != len(NativeQuickSpace()) {
		t.Fatalf("native defaults: %+v", n.budget)
	}
	if n.triadHi != 256*units.MiB || d.triadHi != 768*units.MiB {
		t.Fatal("triad range defaults")
	}
	if n.llc != 32*units.MiB || d.triadLo != 3*units.KiB {
		t.Fatal("LLC / triad lower bound defaults")
	}
}

// TestSummaryGolden pins Result.Summary's exact rendering against
// testdata/summary.golden (regenerate with -update).
func TestSummaryGolden(t *testing.T) {
	res := &Result{
		SystemName: "demo",
		Engine:     "sim:demo",
		SearchTime: 90 * time.Second,
		Compute: []ComputePoint{
			{
				// No Label: pins the legacy fallback rendering.
				Sockets: 1, Dims: core.Dims{N: 4000, M: 512, K: 128},
				Flops: 1400e9, Theoretical: 1536e9,
			},
			{
				Label: "SpMV", Sockets: 1,
				Config: bench.SpMVConfig{N: 1 << 18, NNZPerRow: 16, ChunkRows: 512, Sockets: 1},
				Desc:   "n=262144 nnz/row=16 chunk=512 sockets=1",
				Flops:  9.6e9, Intensity: 0.155,
			},
		},
		Memory: []MemoryPoint{
			// Per-level ceilings in decreasing-bandwidth order, the
			// WithTriadLevels presentation shape.
			{Sockets: 1, Region: "L1", Elements: 1 << 12, Bandwidth: 1500e9},
			{Sockets: 1, Region: "L2", Elements: 1 << 16, Bandwidth: 860e9},
			{Sockets: 1, Region: "L3", Elements: 1 << 18, Bandwidth: 300e9},
			{Sockets: 1, Region: "DRAM", Elements: 1 << 24, Bandwidth: 60e9, Theoretical: 76.8e9},
		},
		// Warnings arrive workload-attributed from the session layer.
		Warnings: []string{"workload triad: TRIAD L2 (1 sockets): no working-set sizes fall in the region"},
	}
	got := res.Summary()
	golden := filepath.Join("testdata", "summary.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("summary drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
