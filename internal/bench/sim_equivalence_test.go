package bench

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/simspmv"
	"rooftune/internal/simstencil"
	"rooftune/internal/simstream"
	"rooftune/internal/units"
	"rooftune/internal/vclock"
	"rooftune/internal/xrand"
)

// formulaInvocation is the reference sample formula of one simulated
// invocation, written out per model with math.Exp on every step and the
// operations in their defining order, so the shared simnoise stream and
// each model's Point stay pinned to it.
type formulaInvocation struct {
	rng      *xrand.Rand
	steadyT  float64
	passes   int // 0: the DGEMM/SpMV/stencil form, t = steadyT / ramp
	ramp     units.Ramp
	iter     int
	iterSig  float64
	spikeP   float64
	spikeSc  float64
	overhead float64
	setup    time.Duration
	work     float64
}

func newFormula(seed uint64, steady float64, passes int, invSig, iterSig, spikeP, spikeSc float64,
	ramp units.Ramp, overhead float64, setup time.Duration, work float64) *formulaInvocation {
	rng := xrand.New(seed)
	steady *= rng.LogNormal(0, invSig)
	return &formulaInvocation{rng: rng, steadyT: steady, passes: passes, ramp: ramp,
		iterSig: iterSig, spikeP: spikeP, spikeSc: spikeSc, overhead: overhead, setup: setup, work: work}
}

func (inv *formulaInvocation) stepRaw() time.Duration {
	ramp := inv.ramp.At(inv.iter)
	inv.iter++
	var t float64
	if inv.passes == 0 {
		t = inv.steadyT / ramp
	} else {
		t = inv.steadyT * float64(inv.passes) / ramp
	}
	t *= inv.rng.LogNormal(0, inv.iterSig)
	if inv.rng.Bernoulli(inv.spikeP) {
		t *= 1 + inv.rng.Gamma(2, inv.spikeSc/2)
	}
	d := time.Duration((t + inv.overhead) * float64(time.Second))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

func (inv *formulaInvocation) stepTime() time.Duration { return vclock.QuantizeMicro(inv.stepRaw()) }

func dgemmFormula(e *SimEngine, n, mm, k, sockets, inv int) *formulaInvocation {
	m := e.DGEMM()
	p := m.ParamsFor(sockets)
	seed := xrand.Mix(e.Seed, 0xd6e8, uint64(n), uint64(mm), uint64(k), uint64(sockets), uint64(inv))
	work := units.DGEMMFlops(n, mm, k)
	bytes := 8 * (float64(n)*float64(k) + float64(k)*float64(mm) + float64(n)*float64(mm))
	bw := float64(e.Sys.TheoreticalBandwidth(sockets)) * 0.5
	setup := 3*time.Millisecond + time.Duration(bytes/bw*float64(time.Second))
	return newFormula(seed, work/float64(m.SteadyFlops(n, mm, k, sockets)), 0, p.InvSigma, p.IterSigma,
		p.SpikeProb, p.SpikeScale, units.WarmupRamp(p.RampDepth, p.RampTau), 2e-6, setup, work)
}

func triadFormula(e *SimEngine, elems int, aff hw.Affinity, sockets, inv int) *formulaInvocation {
	m := e.Triad()
	p := m.ParamsFor(sockets)
	seed := xrand.Mix(e.Seed, 0x7421ad, uint64(elems), uint64(aff), uint64(sockets), uint64(inv))
	steady := units.TriadBytes(elems) / float64(m.SteadyBandwidth(elems, aff, sockets))
	passes := 1
	if min := m.MinMeasuredPass.Seconds(); min > 0 && steady < min {
		passes = int(math.Ceil(min / steady))
		if passes > 1<<24 {
			passes = 1 << 24
		}
	}
	bw := float64(e.Sys.TheoreticalBandwidth(sockets)) * 0.97 * 0.5
	setup := 3*time.Millisecond + time.Duration(units.TriadBytes(elems)/bw*float64(time.Second))
	return newFormula(seed, steady, passes, p.InvSigma, p.IterSigma, p.SpikeProb, p.SpikeScale,
		units.WarmupRamp(0.08, 1.2), 3e-7, setup, units.TriadBytes(elems)*float64(passes))
}

func spmvFormula(e *SimEngine, n, nnz, chunk, sockets, inv int) *formulaInvocation {
	m := e.SpMV()
	p := m.ParamsFor(sockets)
	seed := xrand.Mix(e.Seed, 0x5b317, uint64(n), uint64(nnz), uint64(chunk), uint64(sockets), uint64(inv))
	flops := simspmv.Flops(n, nnz)
	bw := float64(e.Sys.TheoreticalBandwidth(sockets)) * 0.5
	build := float64(n) * float64(nnz) * 25e-9
	touch := simspmv.Traffic(n, nnz) / bw
	setup := 3*time.Millisecond + time.Duration((build+touch)*float64(time.Second))
	return newFormula(seed, flops/float64(m.SteadyFlops(n, nnz, chunk, sockets)), 0, p.InvSigma, p.IterSigma,
		p.SpikeProb, p.SpikeScale, units.WarmupRamp(p.RampDepth, p.RampTau), 5e-7, setup, flops)
}

func stencilFormula(e *SimEngine, nx, ny, tx, ty, sockets, inv int) *formulaInvocation {
	m := e.Stencil()
	p := m.ParamsFor(sockets)
	seed := xrand.Mix(e.Seed, 0x57e9c1, uint64(nx), uint64(ny), uint64(tx), uint64(ty), uint64(sockets), uint64(inv))
	flops := simstencil.Flops(nx, ny)
	bw := float64(e.Sys.TheoreticalBandwidth(sockets)) * 0.5
	setup := 3*time.Millisecond + time.Duration(simstencil.Traffic(nx, ny)/bw*float64(time.Second))
	return newFormula(seed, flops/float64(m.SteadyFlops(nx, ny, tx, ty, sockets)), 0, p.InvSigma, p.IterSigma,
		p.SpikeProb, p.SpikeScale, units.WarmupRamp(p.RampDepth, p.RampTau), 4e-7, setup, flops)
}

// TestSimStreamMatchesFormula pins every simulated case to the sample
// formula: for each system, socket count and kernel model, a spread of
// configurations (batched TRIAD passes included) must give the formula's
// setup charge, work, warm-up and measured durations, step for step,
// over more than 10^6 steps in all.
func TestSimStreamMatchesFormula(t *testing.T) {
	const invocations, steps = 3, 3000
	total := 0
	check := func(name string, eng *SimEngine, c Case, inv int, want *formulaInvocation) {
		t.Helper()
		before := eng.Clock.Now()
		inst, err := c.NewInvocation(inv)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		if got := eng.Clock.Now() - before; got != want.setup {
			t.Fatalf("%s inv %d: setup %v, formula %v", name, inv, got, want.setup)
		}
		if inst.Work() != want.work {
			t.Fatalf("%s inv %d: work %v, formula %v", name, inv, inst.Work(), want.work)
		}
		before = eng.Clock.Now()
		inst.Warmup()
		if got, w := eng.Clock.Now()-before, want.stepRaw(); got != w {
			t.Fatalf("%s inv %d: warm-up %v, formula %v", name, inv, got, w)
		}
		for i := 0; i < steps; i++ {
			if got, w := inst.Step(), want.stepTime(); got != w {
				t.Fatalf("%s inv %d step %d: %v, formula %v", name, inv, i, got, w)
			}
		}
		total += steps
	}
	for _, name := range hw.Known() {
		sys, err := hw.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sockets := range sys.SocketConfigs() {
			aff := hw.AffinityClose
			if sockets > 1 {
				aff = hw.AffinitySpread
			}
			eng := NewSimEngine(sys, 1021)
			batched := NewSimEngine(sys, 1021)
			batched.Triad().MinMeasuredPass = simstream.DefaultMinMeasuredPass
			// Each case is made once and invoked repeatedly, as a sweep
			// does, so later invocations reuse the case's point.
			type pinned struct {
				eng     *SimEngine
				c       Case
				formula func(inv int) *formulaInvocation
			}
			var cases []pinned
			for _, d := range [][3]int{{1000, 4096, 128}, {2000, 2048, 64}, {500, 512, 64}} {
				cases = append(cases, pinned{eng, eng.DGEMMCase(d[0], d[1], d[2], sockets), func(inv int) *formulaInvocation {
					return dgemmFormula(eng, d[0], d[1], d[2], sockets, inv)
				}})
			}
			for _, elems := range []int{int(sys.L1Total(sockets)) / 24, int(4*sys.L3Total(sockets)) / 24} {
				for _, e := range []*SimEngine{eng, batched} {
					cases = append(cases, pinned{e, e.TriadCase(elems, aff, sockets), func(inv int) *formulaInvocation {
						return triadFormula(e, elems, aff, sockets, inv)
					}})
				}
			}
			for _, chunk := range []int{16, 512, 1 << 14} {
				cases = append(cases, pinned{eng, eng.SpMVCase(1<<18, 16, chunk, sockets), func(inv int) *formulaInvocation {
					return spmvFormula(eng, 1<<18, 16, chunk, sockets, inv)
				}})
			}
			for _, tile := range [][2]int{{512, 32}, {64, 8}, {4096, 256}} {
				cases = append(cases, pinned{eng, eng.StencilCase(4096, 4096, tile[0], tile[1], sockets), func(inv int) *formulaInvocation {
					return stencilFormula(eng, 4096, 4096, tile[0], tile[1], sockets, inv)
				}})
			}
			for _, pc := range cases {
				for inv := 0; inv < invocations; inv++ {
					check(name+" "+pc.c.Key(), pc.eng, pc.c, inv, pc.formula(inv))
				}
			}
		}
	}
	if total < 1000000 {
		t.Fatalf("compared %d steps, want at least 10^6", total)
	}
}

// TestSimInvocationAllocatesOnce: a simulated case allocates once, on its
// first invocation (one simRun: its point beside the instance it hands
// out); every later invocation resets that instance and allocates
// nothing.
func TestSimInvocationAllocatesOnce(t *testing.T) {
	eng := NewSimEngine(hw.IdunGold6148, 1)
	for _, mk := range []func() Case{
		func() Case { return eng.DGEMMCase(1000, 4096, 128, 1) },
		func() Case { return eng.TriadCase(4096, hw.AffinityClose, 1) },
		func() Case { return eng.SpMVCase(1<<18, 16, 512, 2) },
		func() Case { return eng.StencilCase(4096, 4096, 512, 32, 2) },
	} {
		c := mk()
		invoke := func(c Case, inv int) {
			inst, err := c.NewInvocation(inv)
			if err != nil {
				t.Fatal(err)
			}
			inst.Warmup()
			for i := 0; i < 50; i++ {
				inst.Step()
			}
			inst.Close()
		}
		// Making a case allocates the case; its first invocation, the run.
		if allocs := testing.AllocsPerRun(20, func() { invoke(mk(), 0) }); allocs != 2 {
			t.Fatalf("%s: making a case and invoking it allocates %v times, want 2", c.Key(), allocs)
		}
		invoke(c, 0)
		inv := 1
		allocs := testing.AllocsPerRun(200, func() {
			invoke(c, inv)
			inv++
		})
		if allocs != 0 {
			t.Fatalf("%s: a later invocation of 50 steps allocates %v times, want 0", c.Key(), allocs)
		}
	}
}

// TestSimCaseReevaluates evaluates one simulated case twice on its
// engine, as core's second-chance pass does, and once more as a fresh
// case on a fresh engine: the three outcomes must be deep-equal, so the
// instance a case reuses carries no state from one invocation or
// evaluation to the next.
func TestSimCaseReevaluates(t *testing.T) {
	ctx := context.Background()
	evaluate := func(eng *SimEngine, c Case, budget Budget, best float64) *Outcome {
		t.Helper()
		out, err := NewEvaluator(eng.Clock, budget).Evaluate(ctx, c, best)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mk := func(eng *SimEngine) Case { return eng.DGEMMCase(1000, 4096, 128, 1) }
	fixed := DefaultBudget()
	probe := NewSimEngine(hw.IdunGold6148, 1021)
	// An incumbent at the case's own mean makes stop condition 4 end
	// some invocations early and leaves others to run out.
	best := evaluate(probe, mk(probe), fixed, NoBest).Mean
	for _, tc := range []struct {
		name   string
		budget Budget
		best   float64
	}{
		{"fixed", fixed, NoBest},
		{"cio", fixed.WithFlags(true, true, true), best},
	} {
		eng := NewSimEngine(hw.IdunGold6148, 1021)
		c := mk(eng)
		first := evaluate(eng, c, tc.budget, tc.best)
		again := evaluate(eng, c, tc.budget, tc.best)
		fresh := NewSimEngine(hw.IdunGold6148, 1021)
		other := evaluate(fresh, mk(fresh), tc.budget, tc.best)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("%s: re-evaluating the case differs:\nfirst %+v\nagain %+v", tc.name, first, again)
		}
		if !reflect.DeepEqual(first, other) {
			t.Fatalf("%s: a fresh engine's evaluation differs:\nfirst %+v\nfresh %+v", tc.name, first, other)
		}
		if tc.name == "cio" && first.InnerStops == 0 {
			t.Fatalf("cio: no invocation stopped early against best %v: %+v", tc.best, first)
		}
	}
}
