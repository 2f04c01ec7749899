package bench

import (
	"fmt"
	"sync"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/simblas"
	"rooftune/internal/simspmv"
	"rooftune/internal/simstencil"
	"rooftune/internal/simstream"
	"rooftune/internal/units"
	"rooftune/internal/vclock"
)

// SimEngine executes benchmark cases against the calibrated performance
// models of a paper system, advancing a virtual clock. Identical seeds
// replay identical experiments.
//
// Each kernel model is built on first use: a sweep's engine runs one
// workload's cases, so it only ever needs one of the four.
type SimEngine struct {
	Sys   hw.System
	Clock *vclock.Virtual
	Seed  uint64

	dgemmOnce, triadOnce, spmvOnce, stencilOnce sync.Once

	dgemm   *simblas.Model
	triad   *simstream.Model
	spmv    *simspmv.Model
	stencil *simstencil.Model
}

// NewSimEngine builds a simulated engine for the system with the given
// noise seed. Engines with the same seed observe identical measurements
// for identical (configuration, invocation, iteration) triples.
func NewSimEngine(sys hw.System, seed uint64) *SimEngine {
	return &SimEngine{Sys: sys, Clock: vclock.NewVirtual(), Seed: seed}
}

// DGEMM returns the engine's DGEMM model, building it on first use.
func (e *SimEngine) DGEMM() *simblas.Model {
	e.dgemmOnce.Do(func() { e.dgemm = simblas.NewModel(e.Sys) })
	return e.dgemm
}

// Triad returns the engine's TRIAD model, building it on first use.
func (e *SimEngine) Triad() *simstream.Model {
	e.triadOnce.Do(func() { e.triad = simstream.NewModel(e.Sys) })
	return e.triad
}

// SpMV returns the engine's SpMV model, building it on first use.
func (e *SimEngine) SpMV() *simspmv.Model {
	e.spmvOnce.Do(func() { e.spmv = simspmv.NewModel(e.Sys) })
	return e.spmv
}

// Stencil returns the engine's stencil model, building it on first use.
func (e *SimEngine) Stencil() *simstencil.Model {
	e.stencilOnce.Do(func() { e.stencil = simstencil.NewModel(e.Sys) })
	return e.stencil
}

// SimEngineName is the report name of a simulated engine for the system,
// the single owner of the "sim:" format.
func SimEngineName(sys hw.System) string { return "sim:" + sys.Name }

// DGEMMCase returns the benchmark case for one matrix-dimension
// configuration on the given socket count.
func (e *SimEngine) DGEMMCase(n, m, k, sockets int) Case {
	return &simDGEMMCase{engine: e, n: n, m: m, k: k, sockets: sockets}
}

// TriadCase returns the benchmark case for one TRIAD vector length.
func (e *SimEngine) TriadCase(elems int, aff hw.Affinity, sockets int) Case {
	return &simTriadCase{engine: e, elems: elems, aff: aff, sockets: sockets}
}

type simDGEMMCase struct {
	engine  *SimEngine
	n, m, k int
	sockets int
}

func (c *simDGEMMCase) Key() string {
	return fmt.Sprintf("dgemm/%d/%dx%dx%d", c.sockets, c.n, c.m, c.k)
}

func (c *simDGEMMCase) Config() Config {
	return DGEMMConfig{N: c.n, M: c.m, K: c.k, Sockets: c.sockets}
}

func (c *simDGEMMCase) Describe() string {
	return fmt.Sprintf("n=%d m=%d k=%d sockets=%d", c.n, c.m, c.k, c.sockets)
}

func (c *simDGEMMCase) Metric() Metric { return MetricFlops }

func (c *simDGEMMCase) NewInvocation(inv int) (Instance, error) {
	if c.n <= 0 || c.m <= 0 || c.k <= 0 {
		return nil, fmt.Errorf("bench: invalid DGEMM dims %s", c.Describe())
	}
	si := c.engine.DGEMM().NewInvocation(c.n, c.m, c.k, c.sockets, inv, c.engine.Seed)
	c.engine.Clock.Advance(si.SetupTime())
	return &simDGEMMInstance{clock: c.engine.Clock, inv: si}, nil
}

type simDGEMMInstance struct {
	clock *vclock.Virtual
	inv   *simblas.Invocation
}

func (i *simDGEMMInstance) Warmup() { i.clock.Advance(i.inv.WarmupTime()) }

func (i *simDGEMMInstance) Step() time.Duration {
	d := i.inv.StepTime()
	i.clock.Advance(d)
	return d
}

func (i *simDGEMMInstance) Work() float64 { return i.inv.Work() }
func (i *simDGEMMInstance) Close()        {}

type simTriadCase struct {
	engine  *SimEngine
	elems   int
	aff     hw.Affinity
	sockets int
}

func (c *simTriadCase) Key() string {
	return fmt.Sprintf("triad/%d/%s/%d", c.sockets, c.aff, c.elems)
}

func (c *simTriadCase) Config() Config {
	return TriadConfig{Elements: c.elems, Affinity: c.aff, Sockets: c.sockets}
}

func (c *simTriadCase) Describe() string {
	return fmt.Sprintf("N=%d (W=%v) affinity=%s sockets=%d",
		c.elems, units.ByteSize(units.TriadBytes(c.elems)), c.aff, c.sockets)
}

func (c *simTriadCase) Metric() Metric { return MetricBandwidth }

func (c *simTriadCase) NewInvocation(inv int) (Instance, error) {
	if c.elems <= 0 {
		return nil, fmt.Errorf("bench: invalid TRIAD length %d", c.elems)
	}
	si := c.engine.Triad().NewInvocation(c.elems, c.aff, c.sockets, inv, c.engine.Seed)
	c.engine.Clock.Advance(si.SetupTime())
	return &simTriadInstance{clock: c.engine.Clock, inv: si}, nil
}

type simTriadInstance struct {
	clock *vclock.Virtual
	inv   *simstream.Invocation
}

func (i *simTriadInstance) Warmup() { i.clock.Advance(i.inv.WarmupTime()) }

func (i *simTriadInstance) Step() time.Duration {
	d := i.inv.StepTime()
	i.clock.Advance(d)
	return d
}

func (i *simTriadInstance) Work() float64 { return i.inv.Work() }
func (i *simTriadInstance) Close()        {}
