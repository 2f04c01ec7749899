package simstencil

import (
	"math"
	"testing"

	"rooftune/internal/hw"
	"rooftune/internal/simnoise"
	"rooftune/internal/stencil"
	"rooftune/internal/units"
)

// invocation streams invocation inv of a Jacobi configuration the way the
// bench layer does: one Point per configuration, one Stream per
// invocation.
func invocation(m *Model, nx, ny, tileX, tileY, sockets, inv int, seed uint64) (simnoise.Point, *simnoise.Stream) {
	p := m.Point(nx, ny, tileX, tileY, sockets)
	var s simnoise.Stream
	s.Reset(&p, Seed(seed, nx, ny, tileX, tileY, sockets, inv))
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
// native kernel's, as simspmv does for CSR.
func TestTrafficMirrorsNativeKernel(t *testing.T) {
	for _, cfg := range [][2]int{{64, 64}, {1024, 512}, {67, 43}} {
		nx, ny := cfg[0], cfg[1]
		g := stencil.NewGrid(nx, ny)
		if got, want := Traffic(nx, ny), g.Bytes(); got != want {
			t.Fatalf("Traffic(%d, %d) = %g, native grid says %g", nx, ny, got, want)
		}
		if got, want := Flops(nx, ny), g.Flops(); got != want {
			t.Fatalf("Flops(%d, %d) = %g, native grid says %g", nx, ny, got, want)
		}
		if got, want := Intensity(nx, ny), g.Intensity(); got != want {
			t.Fatalf("Intensity(%d, %d) = %v, native grid says %v", nx, ny, got, want)
		}
	}
}

func TestIntensityBetweenTriadAndDGEMM(t *testing.T) {
	i := Intensity(2048, 2048)
	if i <= units.TriadIntensity || i >= units.DGEMMIntensity(500, 500, 64) {
		t.Fatalf("stencil intensity %v outside (TRIAD, DGEMM)", i)
	}
}

// TestTileArgmaxUniqueAndOffSpill: over the workload's tile grid the
// surface must have a unique argmax on every paper system, the argmax
// must not sit at the L1-spilling widths (the cache-window term must
// bite), and every value must be positive.
func TestTileArgmaxUniqueAndOffSpill(t *testing.T) {
	xs := []int{128, 256, 512, 1024, 2048}
	ys := []int{8, 32, 128}
	const nx, ny = 2048, 2048
	for _, name := range []string{"2650v4", "2695v4", "Gold 6132", "Gold 6148"} {
		m := NewModel(sys(t, name))
		for _, sockets := range m.Sys.SocketConfigs() {
			type tile struct{ x, y int }
			var best tile
			bestF, ties := units.Flops(0), 0
			for _, tx := range xs {
				for _, ty := range ys {
					f := m.SteadyFlops(nx, ny, tx, ty, sockets)
					if f <= 0 {
						t.Fatalf("%s s%d tile %dx%d: non-positive flops", name, sockets, tx, ty)
					}
					switch {
					case f > bestF:
						best, bestF, ties = tile{tx, ty}, f, 0
					case f == bestF:
						ties++
					}
				}
			}
			if ties != 0 {
				t.Fatalf("%s s%d: %d ties at the argmax", name, sockets, ties)
			}
			if spill := 32 * best.x; spill > int(m.Sys.L1PerCore)*2 {
				t.Fatalf("%s s%d: argmax %dx%d spills far past L1 — cache term inert", name, sockets, best.x, best.y)
			}
		}
	}
}

// TestInvocationDeterminism mirrors simspmv's: hashed noise streams
// depend only on (configuration, invocation, seed).
func TestInvocationDeterminism(t *testing.T) {
	s := sys(t, "Gold 6132")
	a, b := NewModel(s), NewModel(s)
	for inv := 0; inv < 3; inv++ {
		pa, ia := invocation(a, 2048, 2048, 512, 32, 1, inv, 1021)
		pb, ib := invocation(b, 2048, 2048, 512, 32, 1, inv, 1021)
		if pa.Setup != pb.Setup || ia.Warmup() != ib.Warmup() {
			t.Fatal("setup/warmup diverge")
		}
		for i := 0; i < 20; i++ {
			if ta, tb := ia.Step(), ib.Step(); ta != tb {
				t.Fatalf("invocation %d step %d: %v != %v", inv, i, ta, tb)
			}
		}
		if pa.Work != Flops(2048, 2048) {
			t.Fatalf("work = %g", pa.Work)
		}
	}
}

func TestUncalibratedSystemWorks(t *testing.T) {
	s := sys(t, "2650v4")
	s.Name = "my-custom-box"
	m := NewModel(s)
	if f := m.SteadyFlops(2048, 2048, 512, 32, 1); f <= 0 {
		t.Fatalf("generic calibration gave %v", f)
	}
}

// TestWarmupRampTable pins the memoised warm-up ramp bit for bit to the
// direct formula, for every calibrated (RampDepth, RampTau) pair and the
// generic fallback's.
func TestWarmupRampTable(t *testing.T) {
	calibs := []map[int]Params{genericCalibration(hw.IdunE52650v4)}
	for _, c := range stencilCalibrations {
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
