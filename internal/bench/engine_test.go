package bench

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/units"
)

func TestSimEngineDGEMMCase(t *testing.T) {
	eng := NewSimEngine(hw.IdunE52650v4, 1)
	c := eng.DGEMMCase(1000, 4096, 128, 1)
	if c.Metric() != MetricFlops {
		t.Fatal("DGEMM metric must be FLOPS")
	}
	if !strings.Contains(c.Key(), "1000x4096x128") {
		t.Fatalf("Key = %q", c.Key())
	}
	if !strings.Contains(c.Describe(), "n=1000") {
		t.Fatalf("Describe = %q", c.Describe())
	}
	before := eng.Clock.Now()
	inst, err := c.NewInvocation(0)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if eng.Clock.Now() <= before {
		t.Fatal("NewInvocation must account setup time on the clock")
	}
	if inst.Work() != units.DGEMMFlops(1000, 4096, 128) {
		t.Fatalf("Work = %v", inst.Work())
	}
	mid := eng.Clock.Now()
	inst.Warmup()
	if eng.Clock.Now() <= mid {
		t.Fatal("Warmup must advance the clock")
	}
	d := inst.Step()
	if d <= 0 {
		t.Fatalf("Step elapsed %v", d)
	}
	// Step result must be at microsecond resolution (gettimeofday).
	if d != d.Truncate(time.Microsecond) {
		t.Fatalf("Step not quantised: %v", d)
	}
}

func TestSimEngineMeasuredPerfNearModel(t *testing.T) {
	// The full loop through the Case interface must produce the model's
	// calibrated performance (Table IV values) within noise.
	eng := NewSimEngine(hw.IdunE52650v4, 1021)
	eval := NewEvaluator(eng.Clock, DefaultBudget())
	out, err := eval.Evaluate(context.Background(), eng.DGEMMCase(1000, 4096, 128, 1), NoBest)
	if err != nil {
		t.Fatal(err)
	}
	gflops := out.Mean / 1e9
	if gflops < 408.71*0.985 || gflops > 408.71*1.015 {
		t.Fatalf("measured %f GFLOP/s, want ~408.71 (Table IV)", gflops)
	}
}

func TestSimEngineInvalidDims(t *testing.T) {
	eng := NewSimEngine(hw.IdunE52650v4, 1)
	if _, err := eng.DGEMMCase(0, 10, 10, 1).NewInvocation(0); err == nil {
		t.Fatal("invalid dims must error")
	}
	if _, err := eng.TriadCase(0, hw.AffinityClose, 1).NewInvocation(0); err == nil {
		t.Fatal("invalid TRIAD length must error")
	}
}

func TestSimEngineTriadCase(t *testing.T) {
	eng := NewSimEngine(hw.IdunGold6148, 7)
	c := eng.TriadCase(1<<20, hw.AffinitySpread, 2)
	if c.Metric() != MetricBandwidth {
		t.Fatal("TRIAD metric must be bandwidth")
	}
	if !strings.Contains(c.Describe(), "spread") {
		t.Fatalf("Describe = %q", c.Describe())
	}
	inst, err := c.NewInvocation(0)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Work() != units.TriadBytes(1<<20) {
		t.Fatalf("Work = %v", inst.Work())
	}
	inst.Warmup()
	if d := inst.Step(); d <= 0 {
		t.Fatal("Step must advance")
	}
}

func TestSimEngineSeedReplay(t *testing.T) {
	run := func(seed uint64) float64 {
		eng := NewSimEngine(hw.IdunGold6132, seed)
		eval := NewEvaluator(eng.Clock, Budget{Invocations: 2, MaxIterations: 20,
			MaxTime: time.Hour, ErrorInverse: 100, CILevel: 0.99})
		out, err := eval.Evaluate(context.Background(), eng.DGEMMCase(2000, 2048, 256, 2), NoBest)
		if err != nil {
			t.Fatal(err)
		}
		return out.Mean
	}
	if run(5) != run(5) {
		t.Fatal("same seed must replay exactly")
	}
	if run(5) == run(6) {
		t.Fatal("different seeds must differ")
	}
}

func TestNativeEngineDGEMM(t *testing.T) {
	if testing.Short() {
		t.Skip("native kernel run")
	}
	eng := NewNativeEngine(2)
	b := Budget{Invocations: 2, MaxIterations: 3, MaxTime: time.Minute,
		ErrorInverse: 100, CILevel: 0.99}
	eval := NewEvaluator(eng.Clock, b)
	out, err := eval.Evaluate(context.Background(), eng.DGEMMCase(64, 64, 64), NoBest)
	if err != nil {
		t.Fatal(err)
	}
	if out.Mean <= 0 {
		t.Fatalf("native DGEMM metric %v", out.Mean)
	}
	if out.TotalSamples != 6 {
		t.Fatalf("samples = %d", out.TotalSamples)
	}
}

func TestNativeEngineTriad(t *testing.T) {
	if testing.Short() {
		t.Skip("native kernel run")
	}
	eng := NewNativeEngine(2)
	b := Budget{Invocations: 1, MaxIterations: 3, MaxTime: time.Minute,
		ErrorInverse: 100, CILevel: 0.99}
	eval := NewEvaluator(eng.Clock, b)
	out, err := eval.Evaluate(context.Background(), eng.TriadCase(1<<16), NoBest)
	if err != nil {
		t.Fatal(err)
	}
	if out.Mean <= 0 {
		t.Fatalf("native TRIAD bandwidth %v", out.Mean)
	}
}

// TestNativeTriadBatchesSubMicrosecondPasses: a cache-resident TRIAD pass
// is far shorter than the timer's microsecond, so timed alone it reads
// as zero and the evaluator's 1 ns floor turns it into an impossible
// bandwidth. Warmup must size a batch of passes that the timer can see,
// and Work must count the whole batch.
func TestNativeTriadBatchesSubMicrosecondPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("native kernel run")
	}
	eng := NewNativeEngine(2)
	// 3 KiB, the default sweep's smallest working set, and 48 KiB.
	for _, elems := range []int{128, 2048} {
		inst, err := eng.TriadCase(elems).NewInvocation(0)
		if err != nil {
			t.Fatal(err)
		}
		inst.Warmup()
		pass := units.TriadBytes(elems)
		if passes := inst.Work() / pass; passes < 1 || passes != math.Trunc(passes) {
			t.Fatalf("N=%d: Work %v is not a whole number of %v-byte passes", elems, inst.Work(), pass)
		}
		for i := 0; i < 50; i++ {
			if d := inst.Step(); d <= 0 {
				t.Fatalf("N=%d step %d timed %v: the batch of %v passes is below the timer's resolution",
					elems, i, d, inst.Work()/pass)
			}
		}
		inst.Close()
	}
}

func TestMetricHelpers(t *testing.T) {
	if MetricFlops.Unit() != "GFLOP/s" || MetricBandwidth.Unit() != "GB/s" {
		t.Fatal("metric units")
	}
	if MetricFlops.Scale(2e9) != 2 {
		t.Fatal("metric scaling")
	}
}

func TestTimeoutScopeString(t *testing.T) {
	if ScopePerConfig.String() != "per-config" || ScopePerInvocation.String() != "per-invocation" {
		t.Fatal("scope names")
	}
}
