package bench

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/simblas"
	"rooftune/internal/simnoise"
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

// simInstance is one invocation of any simulated case: a sample stream
// that advances the engine's virtual clock.
type simInstance struct {
	stream simnoise.Stream
	clock  *vclock.Virtual
	work   float64
}

// simRun is what a simulated case builds on its first invocation, not
// when the case is made: planning makes every case of a campaign, and a
// served cache hit or a fingerprint evaluates none. It holds the
// configuration's simnoise.Point and the one instance that every
// invocation of the case resets and hands out. A case's invocations run
// one after another, so neither the lazy build nor the reuse needs a
// lock. It sits behind a pointer so an unevaluated case stays small.
type simRun struct {
	point simnoise.Point
	inst  simInstance
}

// newRun builds a case's simRun around its configuration's point.
func (e *SimEngine) newRun(p simnoise.Point) *simRun {
	return &simRun{point: p, inst: simInstance{clock: e.Clock, work: p.Work}}
}

// invoke starts invocation seed of the case: it charges the invocation's
// setup to the clock and returns the case's instance, reset to the
// invocation's stream.
func (r *simRun) invoke(seed uint64) Instance {
	r.inst.clock.Advance(r.point.Setup)
	r.inst.stream.Reset(&r.point, seed)
	return &r.inst
}

func (i *simInstance) Warmup() { i.clock.Advance(i.stream.Warmup()) }

func (i *simInstance) Step() time.Duration {
	d := i.stream.Step()
	i.clock.Advance(d)
	return d
}

func (i *simInstance) Work() float64 { return i.work }
func (i *simInstance) Close()        {}

type simDGEMMCase struct {
	engine  *SimEngine
	n, m, k int
	sockets int
	run     *simRun
}

func (c *simDGEMMCase) Key() string {
	var buf [64]byte
	b := appendField(buf[:0], "dgemm/", c.sockets)
	b = appendField(b, "/", c.n)
	b = appendField(b, "x", c.m)
	return string(appendField(b, "x", c.k))
}

func (c *simDGEMMCase) Config() Config {
	return DGEMMConfig{N: c.n, M: c.m, K: c.k, Sockets: c.sockets}
}

func (c *simDGEMMCase) Describe() string {
	var buf [64]byte
	b := appendField(buf[:0], "n=", c.n)
	b = appendField(b, " m=", c.m)
	b = appendField(b, " k=", c.k)
	return string(appendField(b, " sockets=", c.sockets))
}

func (c *simDGEMMCase) Metric() Metric { return MetricFlops }

func (c *simDGEMMCase) NewInvocation(inv int) (Instance, error) {
	if c.n <= 0 || c.m <= 0 || c.k <= 0 {
		return nil, fmt.Errorf("bench: invalid DGEMM dims %s", c.Describe())
	}
	if c.run == nil {
		c.run = c.engine.newRun(c.engine.DGEMM().Point(c.n, c.m, c.k, c.sockets))
	}
	return c.run.invoke(simblas.Seed(c.engine.Seed, c.n, c.m, c.k, c.sockets, inv)), nil
}

type simTriadCase struct {
	engine  *SimEngine
	elems   int
	aff     hw.Affinity
	sockets int
	run     *simRun
}

func (c *simTriadCase) Key() string {
	var buf [64]byte
	b := appendField(buf[:0], "triad/", c.sockets)
	b = append(append(b, '/'), c.aff.String()...)
	return string(appendField(b, "/", c.elems))
}

func (c *simTriadCase) Config() Config {
	return TriadConfig{Elements: c.elems, Affinity: c.aff, Sockets: c.sockets}
}

func (c *simTriadCase) Describe() string {
	var buf [96]byte
	b := appendField(buf[:0], "N=", c.elems)
	b = units.ByteSize(units.TriadBytes(c.elems)).Append(append(b, " (W="...))
	b = append(append(b, ") affinity="...), c.aff.String()...)
	return string(appendField(b, " sockets=", c.sockets))
}

func (c *simTriadCase) Metric() Metric { return MetricBandwidth }

func (c *simTriadCase) NewInvocation(inv int) (Instance, error) {
	if c.elems <= 0 {
		return nil, fmt.Errorf("bench: invalid TRIAD length %d", c.elems)
	}
	if c.run == nil {
		c.run = c.engine.newRun(c.engine.Triad().Point(c.elems, c.aff, c.sockets))
	}
	return c.run.invoke(simstream.Seed(c.engine.Seed, c.elems, c.aff, c.sockets, inv)), nil
}

// appendField appends name and then v in decimal: one "%s%d" step of a
// sim case's Key or Describe format, written without fmt so that each
// call makes only its string.
func appendField(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}
