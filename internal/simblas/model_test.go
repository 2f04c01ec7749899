package simblas

import (
	"math"
	"testing"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/units"
)

// unionSpace mirrors core.UnionDGEMMSpace without importing core (which
// would invert the dependency direction).
func unionSpace() [][3]int {
	axis := []int{500, 512, 1000, 1024, 2000, 2048, 4000, 4096}
	ks := []int{64, 128, 256, 512, 1024, 2048}
	var out [][3]int
	for _, n := range axis {
		for _, m := range axis {
			for _, k := range ks {
				out = append(out, [3]int{n, m, k})
			}
		}
	}
	return out
}

func TestSurfaceArgmaxMatchesTableV(t *testing.T) {
	// The calibrated response surface's argmax over the paper's search
	// space must be the optimal configuration of Table V, for every
	// system and socket configuration.
	want := map[string]map[int][3]int{
		"2650v4":    {1: {1000, 4096, 128}, 2: {2000, 2048, 64}},
		"2695v4":    {1: {2000, 4096, 128}, 2: {4000, 2048, 128}},
		"Gold 6132": {1: {1000, 4096, 128}, 2: {4000, 512, 128}},
		"Gold 6148": {1: {4000, 512, 128}, 2: {4000, 1024, 128}},
	}
	space := unionSpace()
	for _, sys := range hw.IdunSystems() {
		m := NewModel(sys)
		for sockets, target := range want[sys.Name] {
			best, bestEff := [3]int{}, -1.0
			second := -1.0
			for _, d := range space {
				eff := m.SteadyEff(d[0], d[1], d[2], sockets)
				if eff > bestEff {
					second = bestEff
					best, bestEff = d, eff
				} else if eff > second {
					second = eff
				}
			}
			if best != target {
				t.Errorf("%s S%d: argmax %v, want %v", sys.Name, sockets, best, target)
			}
			if margin := (bestEff - second) / bestEff; margin < 0.005 {
				t.Errorf("%s S%d: argmax margin %.4f too thin for noisy search", sys.Name, sockets, margin)
			}
		}
	}
}

func TestSurfaceEffMatchesTableIV(t *testing.T) {
	// Steady efficiency at the target equals the calibrated Table IV
	// utilisation (up to the documented ramp compensation).
	want := map[string]map[int]float64{
		"2650v4":    {1: 0.9676, 2: 0.9156},
		"2695v4":    {1: 0.9806, 2: 0.9193}, // ramp-inclusive values
		"Gold 6132": {1: 0.8720, 2: 0.7513},
		"Gold 6148": {1: 0.9259, 2: 0.7836},
	}
	for _, sys := range hw.IdunSystems() {
		m := NewModel(sys)
		for sockets, eff := range want[sys.Name] {
			p := m.ParamsFor(sockets)
			got := m.SteadyEff(p.TargetN, p.TargetM, p.TargetK, sockets)
			// Allow the 2695v4's +1.5% steady-state compensation.
			if got < eff-1e-9 || got > eff*1.02 {
				t.Errorf("%s S%d: eff at target %.4f, want ~%.4f", sys.Name, sockets, got, eff)
			}
		}
	}
}

func TestGold6132SquareAnchor(t *testing.T) {
	// §VI-A: n=m=k=1000 on the dual-socket Gold 6132 ran at 55.69% of
	// theoretical peak (1297.48 / 2329.6 GFLOP/s).
	m := NewModel(hw.IdunGold6132)
	got := m.SteadyEff(1000, 1000, 1000, 2)
	if math.Abs(got-0.5569) > 0.01 {
		t.Fatalf("square anchor eff = %.4f, want 0.5569 +- 0.01", got)
	}
	gflops := m.SteadyFlops(1000, 1000, 1000, 2).GFLOPS()
	if math.Abs(gflops-1297.48) > 1297.48*0.015 {
		t.Fatalf("square anchor = %.2f GFLOP/s, want ~1297.48", gflops)
	}
}

func TestSilver4110IntelAnchor(t *testing.T) {
	// Hu & Story: 559.93 GFLOP/s at m=n=k=1000, 52.08% of the SP peak.
	m := NewModel(hw.Silver4110)
	if p := m.ParamsFor(2); !p.SinglePrecision {
		t.Fatal("Silver 4110 must be calibrated in single precision")
	}
	got := m.SteadyFlops(1000, 1000, 1000, 2).GFLOPS()
	if math.Abs(got-559.93) > 559.93*0.01 {
		t.Fatalf("Silver 4110 square = %.2f GFLOP/s, want ~559.93", got)
	}
}

func TestSmallDimensionsPerformPoorly(t *testing.T) {
	// §IV-A's justification for the search-space reduction: low values
	// of n, m, k perform poorly. The smallest initial-space corner must
	// sit far below the optimum on every system.
	for _, sys := range hw.IdunSystems() {
		m := NewModel(sys)
		p := m.ParamsFor(1)
		tiny := m.SteadyEff(64, 64, 2, 1)
		best := m.SteadyEff(p.TargetN, p.TargetM, p.TargetK, 1)
		if tiny > 0.25*best {
			t.Errorf("%s: 64x64x2 at %.3f of optimum — should be poor", sys.Name, tiny/best)
		}
	}
}

func TestEffBounds(t *testing.T) {
	// Efficiency stays in (0, 1] over a wide sweep, including absurd
	// inputs.
	m := NewModel(hw.IdunGold6148)
	for _, d := range unionSpace() {
		for _, sockets := range []int{1, 2} {
			eff := m.SteadyEff(d[0], d[1], d[2], sockets)
			if eff <= 0 || eff > 1 {
				t.Fatalf("eff(%v, S%d) = %v out of (0, 1]", d, sockets, eff)
			}
		}
	}
	if m.SteadyEff(0, 10, 10, 1) != 0 || m.SteadyEff(10, -1, 10, 1) != 0 {
		t.Fatal("non-positive dims must give zero efficiency")
	}
}

func TestInvocationDeterminism(t *testing.T) {
	m := NewModel(hw.IdunE52650v4)
	pa, a := invocation(m, 1000, 4096, 128, 1, 3, 42)
	pb, b := invocation(m, 1000, 4096, 128, 1, 3, 42)
	if pa.Setup != pb.Setup || a.Warmup() != b.Warmup() {
		t.Fatal("same (config, invocation, seed) must replay identically")
	}
	for i := 0; i < 50; i++ {
		if a.Step() != b.Step() {
			t.Fatalf("step %d diverged", i)
		}
	}
}

func TestInvocationStreamsDiffer(t *testing.T) {
	m := NewModel(hw.IdunE52650v4)
	_, a := invocation(m, 1000, 4096, 128, 1, 0, 42)
	_, b := invocation(m, 1000, 4096, 128, 1, 1, 42) // different invocation
	_, c := invocation(m, 1000, 4096, 128, 1, 0, 43) // different seed
	same := 0
	for i := 0; i < 100; i++ {
		ta, tb, tc := a.Step(), b.Step(), c.Step()
		if ta == tb {
			same++
		}
		if ta == tc {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("noise streams correlated: %d collisions", same)
	}
}

func TestWarmupRampImprovesPerformance(t *testing.T) {
	// Later iterations must be faster than the first post-warm-up ones
	// (on average), and converge toward steady state — the behaviour
	// behind §III-C4's min_count discussion.
	m := NewModel(hw.IdunE52695v4)
	_, inv := invocation(m, 2000, 4096, 128, 1, 0, 7)
	inv.Warmup()
	var early, late time.Duration
	const batch = 5
	for i := 0; i < batch; i++ {
		early += inv.Step()
	}
	for i := 0; i < 150; i++ {
		inv.Step()
	}
	for i := 0; i < batch; i++ {
		late += inv.Step()
	}
	if late >= early {
		t.Fatalf("no warm-up ramp: early %v, late %v", early, late)
	}
	steady := time.Duration(units.DGEMMFlops(2000, 4096, 128) /
		float64(m.SteadyFlops(2000, 4096, 128, 1)) * float64(time.Second))
	if late < steady*batch*95/100 {
		t.Fatalf("late iterations faster than steady state: %v vs %v", late/batch, steady)
	}
}

func TestGenericCalibrationForUnknownSystem(t *testing.T) {
	sys := hw.System{
		Name: "mystery", FreqGHz: 3.0, CoresPerSocket: 8, Vector: hw.AVX2,
		FMAUnits: 2, Sockets: 1, DRAMFreqMHz: 3200, DRAMChannels: 2,
		BytesPerCycle: 8, L3PerSocket: 16 * units.MiB,
		L2PerCore: 512 * units.KiB, L1PerCore: 32 * units.KiB,
	}
	m := NewModel(sys)
	p := m.ParamsFor(1)
	if p.TargetK != 128 {
		t.Fatalf("generic calibration should use the k=128 sweet spot, got %d", p.TargetK)
	}
	eff := m.SteadyEff(p.TargetN, p.TargetM, p.TargetK, 1)
	if eff < 0.85 || eff > 1 {
		t.Fatalf("generic AVX2 target eff = %v", eff)
	}
}

func TestGenericMultiSocketScaling(t *testing.T) {
	sys := hw.IdunGold6148
	sys.Name = "uncalibrated-clone"
	m := NewModel(sys)
	e1 := m.ParamsFor(1).TargetEff
	e2 := m.ParamsFor(2).TargetEff
	if e2 >= e1 {
		t.Fatalf("dual-socket efficiency must degrade: %v vs %v", e1, e2)
	}
}

func TestPeakUsesVectorGeneration(t *testing.T) {
	m := NewModel(hw.IdunGold6148)
	if got := m.Peak(1).GFLOPS(); math.Abs(got-1536) > 1e-9 {
		t.Fatalf("Peak(1) = %v", got)
	}
	if got := m.Peak(2).GFLOPS(); math.Abs(got-3072) > 1e-9 {
		t.Fatalf("Peak(2) = %v", got)
	}
}

func TestSetupTimeScalesWithSize(t *testing.T) {
	m := NewModel(hw.IdunE52650v4)
	small := m.Point(500, 512, 64, 1).Setup
	big := m.Point(4096, 4096, 2048, 1).Setup
	if big <= small {
		t.Fatalf("setup time must grow with matrix size: %v vs %v", small, big)
	}
}

// TestWarmupRampTable pins the memoised warm-up ramp bit for bit to the
// direct formula, for every calibrated (RampDepth, RampTau) pair and the
// generic fallback's.
func TestWarmupRampTable(t *testing.T) {
	calibs := []map[int]Params{genericCalibration(hw.IdunE52650v4)}
	for _, c := range calibrations {
		calibs = append(calibs, c)
	}
	for _, calib := range calibs {
		for _, p := range calib {
			r := units.WarmupRamp(p.RampDepth, p.RampTau)
			for i := 0; i <= 100000; i++ {
				want := 1 - p.RampDepth*math.Exp(-float64(i+1)/p.RampTau)
				if got := r.At(i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("ramp(%g, %g) at iter %d = %v, formula %v", p.RampDepth, p.RampTau, i, got, want)
				}
			}
		}
	}
}
