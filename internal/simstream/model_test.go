package simstream

import (
	"math"
	"testing"

	"rooftune/internal/hw"
	"rooftune/internal/simnoise"
	"rooftune/internal/units"
)

// invocation streams invocation inv of a TRIAD configuration the way the
// bench layer does: one Point per configuration, one Stream per
// invocation.
func invocation(m *Model, elems int, aff hw.Affinity, sockets, inv int, seed uint64) (simnoise.Point, *simnoise.Stream) {
	p := m.Point(elems, aff, sockets)
	var s simnoise.Stream
	s.Reset(&p, Seed(seed, elems, aff, sockets, inv))
	return p, &s
}

// regionPeak scans the canonical sweep for the best steady bandwidth in a
// residency region, mirroring what the tuner reports.
func regionPeak(m *Model, sockets int, aff hw.Affinity, lo, hi float64) float64 {
	best := 0.0
	for _, w := range units.CanonicalTriadGrid() {
		wf := float64(w)
		if wf < lo || wf > hi {
			continue
		}
		elems := int(w / 24)
		if elems < 1 {
			continue
		}
		if b := float64(m.SteadyBandwidth(elems, aff, sockets)); b > best {
			best = b
		}
	}
	return best / 1e9
}

func TestTableVICalibration(t *testing.T) {
	// The steady curve's region maxima must reproduce the paper's Table
	// VI within 1% for every system and socket configuration.
	want := map[string]struct{ d1, d2, l1, l2 float64 }{
		"2650v4":    {40.42, 80.65, 256.07, 452.05},
		"2695v4":    {43.29, 76.32, 371.41, 661.68},
		"Gold 6132": {68.32, 132.18, 422.87, 814.82},
		"Gold 6148": {74.16, 139.80, 547.11, 1000.10},
	}
	for _, sys := range hw.IdunSystems() {
		m := NewModel(sys)
		w := want[sys.Name]
		check := func(name string, got, wantV float64) {
			if math.Abs(got-wantV) > wantV*0.01 {
				t.Errorf("%s %s = %.2f GB/s, want %.2f", sys.Name, name, got, wantV)
			}
		}
		l3s1 := float64(sys.L3Total(1))
		l3s2 := float64(sys.L3Total(2))
		l2s1 := float64(sys.L2PerCore) * float64(sys.Cores(1))
		l2s2 := float64(sys.L2PerCore) * float64(sys.Cores(2))
		check("DRAM S1", regionPeak(m, 1, hw.AffinityClose, 4*l3s1, math.Inf(1)), w.d1)
		check("DRAM S2", regionPeak(m, 2, hw.AffinitySpread, 4*l3s2, math.Inf(1)), w.d2)
		check("L3 S1", regionPeak(m, 1, hw.AffinityClose, l2s1*1.0001, 0.9*l3s1), w.l1)
		check("L3 S2", regionPeak(m, 2, hw.AffinitySpread, l2s2*1.0001, 0.9*l3s2), w.l2)
	}
}

func TestDRAMExceedsTheoretical(t *testing.T) {
	// The paper's observation: measured DRAM bandwidth beats Eq. 11's
	// peak because of residual L3 hits.
	for _, sys := range hw.IdunSystems() {
		m := NewModel(sys)
		l3 := float64(sys.L3Total(1))
		peak := regionPeak(m, 1, hw.AffinityClose, 4*l3, math.Inf(1))
		if peak <= sys.TheoreticalBandwidth(1).GBps() {
			t.Errorf("%s: DRAM peak %.2f not above theoretical %.2f",
				sys.Name, peak, sys.TheoreticalBandwidth(1).GBps())
		}
	}
}

func TestBandwidthMonotoneDecreasingInDRAMRegion(t *testing.T) {
	// Past the L3-assist knee, bandwidth must decay toward the pure DRAM
	// rate as the working set grows.
	m := NewModel(hw.IdunE52650v4)
	l3 := float64(hw.IdunE52650v4.L3Total(1))
	prev := math.Inf(1)
	for _, w := range units.CanonicalTriadGrid() {
		if float64(w) < 4*l3 {
			continue
		}
		b := float64(m.SteadyBandwidth(int(w/24), hw.AffinityClose, 1))
		if b > prev+1 {
			t.Fatalf("DRAM-region bandwidth rose at W=%v", w)
		}
		prev = b
	}
}

func TestCacheHierarchyOrdering(t *testing.T) {
	// L1 > L2 > L3 > DRAM plateaus, for every system.
	for _, sys := range hw.IdunSystems() {
		m := NewModel(sys)
		cores := float64(sys.Cores(1))
		l1 := float64(sys.L1PerCore) * cores
		l2 := float64(sys.L2PerCore) * cores
		l3 := float64(sys.L3Total(1))
		bL1 := float64(m.SteadyBandwidth(int(l1*0.5/24), hw.AffinityClose, 1))
		bL2 := float64(m.SteadyBandwidth(int((l1+l2)/2/24), hw.AffinityClose, 1))
		bL3 := float64(m.SteadyBandwidth(int((l2*1.05)/24), hw.AffinityClose, 1))
		bDRAM := float64(m.SteadyBandwidth(int(8*l3/24), hw.AffinityClose, 1))
		if !(bL1 > bL2 && bL2 > bL3 && bL3 > bDRAM) {
			t.Errorf("%s: hierarchy not ordered: L1 %.0f L2 %.0f L3 %.0f DRAM %.0f",
				sys.Name, bL1/1e9, bL2/1e9, bL3/1e9, bDRAM/1e9)
		}
	}
}

func TestSpreadDoublesChannels(t *testing.T) {
	// Dual-socket spread runs see roughly twice the single-socket DRAM
	// bandwidth (the paper's §III-B affinity rationale).
	m := NewModel(hw.IdunGold6148)
	l3s2 := float64(hw.IdunGold6148.L3Total(2))
	elems := int(8 * l3s2 / 24)
	b1 := float64(m.SteadyBandwidth(elems, hw.AffinityClose, 1))
	b2 := float64(m.SteadyBandwidth(elems, hw.AffinitySpread, 2))
	ratio := b2 / b1
	if ratio < 1.7 || ratio > 2.2 {
		t.Fatalf("spread S2/S1 DRAM ratio %.2f, want ~2", ratio)
	}
}

func TestCloseOnTwoSocketsPenalised(t *testing.T) {
	// close across sockets = partially remote accesses: better than one
	// socket, worse than spread.
	m := NewModel(hw.IdunE52650v4)
	l3s2 := float64(hw.IdunE52650v4.L3Total(2))
	elems := int(8 * l3s2 / 24)
	spread := float64(m.SteadyBandwidth(elems, hw.AffinitySpread, 2))
	close2 := float64(m.SteadyBandwidth(elems, hw.AffinityClose, 2))
	single := float64(m.SteadyBandwidth(elems, hw.AffinityClose, 1))
	if !(close2 < spread && close2 > single) {
		t.Fatalf("close-on-2 should sit between: single %.1f, close2 %.1f, spread %.1f",
			single/1e9, close2/1e9, spread/1e9)
	}
}

func TestInvocationDeterminismStream(t *testing.T) {
	m := NewModel(hw.IdunGold6132)
	pa, a := invocation(m, 1<<20, hw.AffinitySpread, 2, 4, 99)
	pb, b := invocation(m, 1<<20, hw.AffinitySpread, 2, 4, 99)
	if pa.Setup != pb.Setup {
		t.Fatal("setup must replay")
	}
	a.Warmup()
	b.Warmup()
	for i := 0; i < 30; i++ {
		if a.Step() != b.Step() {
			t.Fatalf("step %d diverged", i)
		}
	}
}

func TestStepMetricNearSteady(t *testing.T) {
	// Long-run mean of measured bandwidth must approach the steady curve
	// (within noise and the small warm-up deficit).
	m := NewModel(hw.IdunE52650v4)
	elems := 1 << 22 // ~100 MB: DRAM resident
	_, inv := invocation(m, elems, hw.AffinityClose, 1, 0, 1234)
	inv.Warmup()
	var sum float64
	const n = 300
	for i := 0; i < n; i++ {
		dt := inv.Step().Seconds()
		sum += units.TriadBytes(elems) / dt
	}
	mean := sum / n
	steady := float64(m.SteadyBandwidth(elems, hw.AffinityClose, 1))
	if math.Abs(mean-steady)/steady > 0.03 {
		t.Fatalf("measured mean %.2f GB/s vs steady %.2f GB/s", mean/1e9, steady/1e9)
	}
}

func TestGenericStreamCalibration(t *testing.T) {
	sys := hw.IdunGold6148
	sys.Name = "uncalibrated-stream"
	m := NewModel(sys)
	p := m.ParamsFor(1)
	bt := float64(sys.TheoreticalBandwidth(1))
	if float64(p.DRAM) < bt || float64(p.DRAM) > bt*1.2 {
		t.Fatalf("generic DRAM calibration %.1f vs theoretical %.1f", float64(p.DRAM)/1e9, bt/1e9)
	}
	if p.L3 <= p.DRAM {
		t.Fatal("generic L3 must exceed DRAM")
	}
}

func TestZeroElementsBandwidth(t *testing.T) {
	m := NewModel(hw.IdunE52650v4)
	if m.SteadyBandwidth(0, hw.AffinityClose, 1) != 0 {
		t.Fatal("zero elements must give zero bandwidth")
	}
}

// measuredBandwidth runs one invocation's measured steps and returns the
// mean effective bandwidth (work/time), the quantity the evaluator sees.
func measuredBandwidth(m *Model, elems, steps int) float64 {
	p, inv := invocation(m, elems, hw.AffinityClose, 1, 0, 1021)
	inv.Warmup()
	var total, work float64
	for i := 0; i < steps; i++ {
		total += inv.Step().Seconds()
		work += p.Work
	}
	return work / total
}

func TestMinMeasuredPassRecoversSubL3Plateaus(t *testing.T) {
	// Without batching, a sub-microsecond pass is clamped and quantised
	// into an artifact; with MinMeasuredPass the measured bandwidth of
	// L1/L2-resident working sets lands near the calibrated plateau and
	// the hierarchy stays monotone — the property the per-level TRIAD
	// sweeps report.
	for _, sys := range hw.IdunSystems() {
		m := NewModel(sys)
		m.MinMeasuredPass = DefaultMinMeasuredPass
		p := m.ParamsFor(1)
		l1Elems := int(sys.L1Total(1)) / 24
		l2Elems := int(sys.L2Total(1)) / 24
		bL1 := measuredBandwidth(m, l1Elems, 20)
		bL2 := measuredBandwidth(m, l2Elems, 20)
		if math.Abs(bL1-float64(p.L1)) > 0.05*float64(p.L1) {
			t.Errorf("%s: measured L1 %.1f GB/s, plateau %.1f", sys.Name, bL1/1e9, float64(p.L1)/1e9)
		}
		if math.Abs(bL2-float64(p.L2)) > 0.05*float64(p.L2) {
			t.Errorf("%s: measured L2 %.1f GB/s, plateau %.1f", sys.Name, bL2/1e9, float64(p.L2)/1e9)
		}
		if !(bL1 > bL2 && bL2 > float64(p.L3)) {
			t.Errorf("%s: hierarchy not monotone: L1 %.1f, L2 %.1f, L3 plateau %.1f GB/s",
				sys.Name, bL1/1e9, bL2/1e9, float64(p.L3)/1e9)
		}
	}
}

func TestMinMeasuredPassLeavesLongPassesUntouched(t *testing.T) {
	// A working set whose single pass already exceeds the floor must
	// produce bit-identical samples with and without MinMeasuredPass:
	// the L3/DRAM sweeps that calibrate against Table VI never batch.
	sys := hw.IdunGold6148
	plain := NewModel(sys)
	batched := NewModel(sys)
	batched.MinMeasuredPass = DefaultMinMeasuredPass
	elems := 1 << 22 // 96 MiB: DRAM-resident, pass ~1 ms
	pa, a := invocation(plain, elems, hw.AffinityClose, 1, 0, 1021)
	pb, b := invocation(batched, elems, hw.AffinityClose, 1, 0, 1021)
	if pa.Setup != pb.Setup || a.Warmup() != b.Warmup() {
		t.Fatal("setup/warmup diverged")
	}
	if pa.Work != pb.Work || pb.Passes != 1 {
		t.Fatalf("work diverged: %v vs %v (%d passes)", pa.Work, pb.Work, pb.Passes)
	}
	for i := 0; i < 10; i++ {
		if sa, sb := a.Step(), b.Step(); sa != sb {
			t.Fatalf("step %d diverged: %v vs %v", i, sa, sb)
		}
	}
}

func TestMinMeasuredPassBatchesDeterministically(t *testing.T) {
	// Batched invocations stay seed-deterministic and move passes x 24N
	// bytes per step.
	sys := hw.IdunGold6148
	m := NewModel(sys)
	m.MinMeasuredPass = DefaultMinMeasuredPass
	elems := 1 << 10
	p, a := invocation(m, elems, hw.AffinityClose, 1, 3, 99)
	_, b := invocation(m, elems, hw.AffinityClose, 1, 3, 99)
	if p.Passes <= 1 {
		t.Fatalf("tiny working set not batched: passes = %d", p.Passes)
	}
	if got, want := p.Work, units.TriadBytes(elems)*float64(p.Passes); got != want {
		t.Fatalf("Work = %v, want %v", got, want)
	}
	for i := 0; i < 5; i++ {
		if sa, sb := a.Step(), b.Step(); sa != sb {
			t.Fatalf("equal seeds diverged at step %d", i)
		}
	}
}

// TestWarmupRampTable pins the memoised TRIAD warm-up ramp bit for bit to
// the direct formula.
func TestWarmupRampTable(t *testing.T) {
	r := units.WarmupRamp(rampDepth, rampTau)
	for i := 0; i <= 100000; i++ {
		want := 1 - rampDepth*math.Exp(-float64(i+1)/rampTau)
		if got := r.At(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ramp(%g, %g) at iter %d = %v, formula %v", rampDepth, rampTau, i, got, want)
		}
	}
}
