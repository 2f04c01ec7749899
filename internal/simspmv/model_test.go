package simspmv

import (
	"math"
	"testing"

	"rooftune/internal/hw"
	"rooftune/internal/simnoise"
	"rooftune/internal/spmv"
	"rooftune/internal/units"
)

// invocation streams invocation inv of an SpMV configuration the way the
// bench layer does: one Point per configuration, one Stream per
// invocation.
func invocation(m *Model, n, nnzPerRow, chunk, sockets, inv int, seed uint64) (simnoise.Point, *simnoise.Stream) {
	p := m.Point(n, nnzPerRow, chunk, sockets)
	var s simnoise.Stream
	s.Reset(&p, Seed(seed, n, nnzPerRow, chunk, sockets, inv))
	return p, &s
}

func sys(t *testing.T, name string) hw.System {
	t.Helper()
	s, err := hw.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTrafficMirrorsNativeKernel pins the simulated intensity to the
// native kernel's: if spmv.CSR.Bytes ever changes its traffic accounting,
// the two engines would land the workload at different roofline
// intensities — this is the tripwire.
func TestTrafficMirrorsNativeKernel(t *testing.T) {
	for _, cfg := range [][2]int{{1024, 8}, {4096, 16}, {513, 3}} {
		n, nnz := cfg[0], cfg[1]
		a := spmv.Synthetic(n, nnz, 1)
		if got, want := Traffic(n, nnz), a.Bytes(); got != want {
			t.Fatalf("Traffic(%d, %d) = %g, native CSR says %g", n, nnz, got, want)
		}
		if got, want := Flops(n, nnz), a.Flops(); got != want {
			t.Fatalf("Flops(%d, %d) = %g, native CSR says %g", n, nnz, got, want)
		}
		if got, want := Intensity(n, nnz), a.Intensity(); got != want {
			t.Fatalf("Intensity(%d, %d) = %v, native CSR says %v", n, nnz, got, want)
		}
	}
}

func TestIntensityBetweenTriadAndDGEMM(t *testing.T) {
	i := Intensity(1<<18, 16)
	if i <= units.TriadIntensity || i >= units.DGEMMIntensity(500, 500, 64) {
		t.Fatalf("SpMV intensity %v outside (TRIAD, DGEMM)", i)
	}
}

// TestChunkArgmaxInterior: the chunk response must peak strictly inside
// the workload's sweep grid on every paper system and socket count —
// otherwise the autotuner is just reading off a boundary.
func TestChunkArgmaxInterior(t *testing.T) {
	grid := []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	const n, nnz = 1 << 18, 16
	for _, name := range []string{"2650v4", "2695v4", "Gold 6132", "Gold 6148"} {
		m := NewModel(sys(t, name))
		for _, sockets := range m.Sys.SocketConfigs() {
			best, bestFlops := -1, units.Flops(0)
			for i, c := range grid {
				f := m.SteadyFlops(n, nnz, c, sockets)
				if f <= 0 {
					t.Fatalf("%s s%d chunk %d: non-positive flops", name, sockets, c)
				}
				if f > bestFlops {
					best, bestFlops = i, f
				}
			}
			if best == 0 || best == len(grid)-1 {
				t.Fatalf("%s s%d: argmax at grid boundary (chunk %d)", name, sockets, grid[best])
			}
		}
	}
}

// TestSteadyFlopsBelowBandwidthBound: the modelled throughput can never
// exceed the system's own streaming bandwidth times the kernel intensity.
func TestSteadyFlopsBelowBandwidthBound(t *testing.T) {
	m := NewModel(sys(t, "Gold 6148"))
	const n, nnz = 1 << 18, 16
	for _, sockets := range m.Sys.SocketConfigs() {
		aff := hw.AffinityClose
		if sockets > 1 {
			aff = hw.AffinitySpread
		}
		bound := float64(m.BW.SteadyBandwidthBytes(Traffic(n, nnz), aff, sockets)) * float64(Intensity(n, nnz))
		for _, c := range []int{32, 512, 8192} {
			if f := float64(m.SteadyFlops(n, nnz, c, sockets)); f >= bound {
				t.Fatalf("s%d chunk %d: %g FLOP/s >= streaming bound %g", sockets, c, f, bound)
			}
		}
	}
}

// TestInvocationDeterminism: equal (configuration, invocation, seed)
// triples must replay identical measurement streams regardless of
// model instance — the property every simulated engine's scheduling
// freedom rests on.
func TestInvocationDeterminism(t *testing.T) {
	s := sys(t, "2650v4")
	a, b := NewModel(s), NewModel(s)
	for inv := 0; inv < 3; inv++ {
		pa, ia := invocation(a, 1<<16, 16, 512, 2, inv, 1021)
		pb, ib := invocation(b, 1<<16, 16, 512, 2, inv, 1021)
		if pa.Setup != pb.Setup {
			t.Fatal("setup times diverge")
		}
		if ia.Warmup() != ib.Warmup() {
			t.Fatal("warmup times diverge")
		}
		for i := 0; i < 20; i++ {
			if ta, tb := ia.Step(), ib.Step(); ta != tb {
				t.Fatalf("invocation %d step %d: %v != %v", inv, i, ta, tb)
			}
		}
		if pa.Work != Flops(1<<16, 16) {
			t.Fatalf("work = %g", pa.Work)
		}
	}
	// A different seed must produce a different stream.
	_, ia := invocation(a, 1<<16, 16, 512, 2, 0, 1021)
	_, ib := invocation(b, 1<<16, 16, 512, 2, 0, 1022)
	same := true
	for i := 0; i < 10; i++ {
		if ia.Step() != ib.Step() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds replayed an identical stream")
	}
}

// TestUncalibratedSystemWorks: user-defined systems fall back to the
// generic calibration instead of panicking.
func TestUncalibratedSystemWorks(t *testing.T) {
	s := sys(t, "Gold 6148")
	s.Name = "my-custom-box"
	m := NewModel(s)
	if f := m.SteadyFlops(1<<16, 16, 512, 1); f <= 0 {
		t.Fatalf("generic calibration gave %v", f)
	}
}

// TestWarmupRampTable pins the memoised warm-up ramp bit for bit to the
// direct formula, for every calibrated (RampDepth, RampTau) pair and the
// generic fallback's.
func TestWarmupRampTable(t *testing.T) {
	calibs := []map[int]Params{genericCalibration(hw.IdunE52650v4)}
	for _, c := range spmvCalibrations {
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
