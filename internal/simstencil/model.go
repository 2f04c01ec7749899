// Package simstencil models 2D 5-point Jacobi performance on the paper's
// systems, completing the simulated-engine trio alongside simblas and
// simspmv. Like simspmv it is calibrated derivatively from simstream's
// Table VI residency curves: one Jacobi sweep streams two grids through
// the memory hierarchy at 0.25 FLOP/B, and the tuning axes — the tile
// width and height — shape that service rate through three mechanisms:
//
//   - narrow tiles truncate the contiguous runs the prefetchers need,
//   - tiles whose three-row window falls out of L1 stop turning the two
//     vertical-neighbour loads into cache hits (extra traffic),
//   - tall tiles coarsen the band partition until cores idle.
//
// The resulting surface has a unique argmax over any realistic tile
// grid, so the autotuner has a real optimum to find, and the noise stream
// every simulated model shares (simnoise: lognormal body, spikes,
// invocation shifts), with a warm-up ramp of its own, drives the adaptive
// stop conditions.
package simstencil

import (
	"math"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/simnoise"
	"rooftune/internal/simstream"
	"rooftune/internal/units"
	"rooftune/internal/xrand"
)

// Params calibrates one system's stencil behaviour.
type Params struct {
	// StreamEff is the fraction of streaming bandwidth the stencil's
	// three-row access pattern sustains at the ideal tile; stencils come
	// closer to STREAM than gathers do, so it sits above simspmv's
	// GatherEff.
	StreamEff float64
	// OverheadCols is the per-row loop start cost in equivalent columns;
	// tiles narrower than this are overhead-dominated.
	OverheadCols float64
	// SpillPenalty scales the bandwidth loss when the tile's working
	// window exceeds L1 (vertical-neighbour reuse lost).
	SpillPenalty float64

	// Noise model, same family as the sibling packages.
	IterSigma, InvSigma   float64
	SpikeProb, SpikeScale float64
	RampDepth, RampTau    float64
}

// Model is a calibrated stencil performance model for one system.
type Model struct {
	Sys    hw.System
	BW     *simstream.Model
	params map[int]Params
}

// NewModel builds the stencil model for a system; uncalibrated systems
// get the documented generic parameters.
func NewModel(sys hw.System) *Model {
	m := &Model{Sys: sys, BW: simstream.NewModel(sys), params: map[int]Params{}}
	calib, ok := stencilCalibrations[sys.Name]
	if !ok {
		calib = genericCalibration(sys)
	}
	for s, p := range calib {
		m.params[s] = p
	}
	return m
}

// ParamsFor returns the calibration for a socket count with the sibling
// models' nearest-fallback behaviour.
func (m *Model) ParamsFor(sockets int) Params {
	if sockets < 1 {
		sockets = 1
	}
	if sockets > m.Sys.Sockets {
		sockets = m.Sys.Sockets
	}
	if p, ok := m.params[sockets]; ok {
		return p
	}
	for s := sockets; s >= 1; s-- {
		if p, ok := m.params[s]; ok {
			return p
		}
	}
	return genericCalibration(m.Sys)[1]
}

// Traffic returns one sweep's minimum memory traffic in bytes, mirroring
// stencil.Grid.Bytes so simulated and native kernels share an intensity.
func Traffic(nx, ny int) float64 { return 16 * float64(nx) * float64(ny) }

// Flops returns one sweep's floating-point work, mirroring
// stencil.Grid.Flops.
func Flops(nx, ny int) float64 { return 4 * float64(nx-2) * float64(ny-2) }

// Intensity returns the kernel's operational intensity.
func Intensity(nx, ny int) units.Intensity {
	return units.Intensity(Flops(nx, ny) / Traffic(nx, ny))
}

// TileEff returns the deterministic efficiency of a (tileX, tileY) shape
// on the given socket count: run-length, cache-window, band-utilisation
// and band-restart terms, each in (0, 1], with a unique maximum over any
// realistic tile grid. Exported so tests can assert the argmax the tuner
// must find.
func (m *Model) TileEff(nx, ny, tileX, tileY, sockets int) float64 {
	if tileX < 1 {
		tileX = 1
	}
	if tileY < 1 {
		tileY = 1
	}
	p := m.ParamsFor(sockets)
	cores := float64(m.Sys.Cores(sockets))

	// Run length: each tile row restarts the streaming loop.
	run := float64(tileX) / (float64(tileX) + p.OverheadCols)

	// Cache window: the sweep reads three src rows and writes one dst row
	// per tile band; 4 rows x 8 bytes x tileX must stay L1-resident for
	// the vertical neighbours to hit.
	window := 32 * float64(tileX)
	l1 := float64(m.Sys.L1PerCore)
	spill := 1.0
	if window > l1 {
		spill = 1 / (1 + p.SpillPenalty*(window-l1)/l1)
	}

	// Band utilisation: bands of tileY rows are the parallel tasks,
	// statically partitioned over the cores; utilisation collapses once
	// there are fewer bands than workers.
	bands := math.Ceil(float64(ny-2) / float64(tileY))
	util := bands / (math.Ceil(bands/cores) * cores)

	// Each band restarts the x-tile traversal (the halo rows re-enter
	// cache), so very short bands churn.
	restart := float64(tileY) / (float64(tileY) + 1.5)
	return run * spill * util * restart
}

// SteadyFlops returns the deterministic steady-state Jacobi throughput
// for an nx x ny grid at the given tile shape and socket count.
func (m *Model) SteadyFlops(nx, ny, tileX, tileY, sockets int) units.Flops {
	if nx < 3 || ny < 3 {
		return 0
	}
	p := m.ParamsFor(sockets)
	aff := hw.AffinityClose
	if sockets > 1 {
		aff = hw.AffinitySpread
	}
	bw := float64(m.BW.SteadyBandwidthBytes(Traffic(nx, ny), aff, sockets))
	flops := bw * float64(Intensity(nx, ny)) * p.StreamEff * m.TileEff(nx, ny, tileX, tileY, sockets)
	return units.Flops(flops)
}

// Point returns the simulated state of one Jacobi configuration: steady
// sweep time, warm-up ramp, noise, setup cost and work. It is a pure
// function of the configuration, computed once per configuration.
func (m *Model) Point(nx, ny, tileX, tileY, sockets int) simnoise.Point {
	p := m.ParamsFor(sockets)
	flops := Flops(nx, ny)
	const startup = 3 * time.Millisecond
	bw := float64(m.Sys.TheoreticalBandwidth(sockets)) * 0.5
	return simnoise.Point{
		Noise: simnoise.Noise{
			IterSigma: p.IterSigma, InvSigma: p.InvSigma,
			SpikeProb: p.SpikeProb, SpikeScale: p.SpikeScale,
		},
		Steady:   flops / float64(m.SteadyFlops(nx, ny, tileX, tileY, sockets)),
		Passes:   1,
		Ramp:     units.WarmupRamp(p.RampDepth, p.RampTau),
		Overhead: 4e-7,
		// Process start plus first-touch of the two grids at half DRAM
		// speed.
		Setup: startup + time.Duration(Traffic(nx, ny)/bw*float64(time.Second)),
		Work:  flops,
	}
}

// Seed returns the noise seed of invocation inv of a Jacobi
// configuration, hashing (seed, configuration, invocation) as all the
// simulated models do.
func Seed(seed uint64, nx, ny, tileX, tileY, sockets, inv int) uint64 {
	return xrand.Mix(seed, 0x57e9c1, uint64(nx), uint64(ny),
		uint64(tileX), uint64(tileY), uint64(sockets), uint64(inv))
}

// stencilCalibrations holds per-system overrides: stencils sustain a
// higher fraction of streaming bandwidth than gathers, with the Skylakes
// again slightly ahead, and inherit each system's TRIAD noise character.
var stencilCalibrations = map[string]map[int]Params{
	"2650v4":    {1: broadwellStencil(), 2: broadwellStencil()},
	"2695v4":    {1: noisyBroadwellStencil(), 2: noisyBroadwellStencil()},
	"Gold 6132": {1: skylakeStencil(), 2: skylakeStencil()},
	"Gold 6148": {1: skylakeStencil(), 2: skylakeStencil()},
}

func broadwellStencil() Params {
	return Params{
		StreamEff: 0.88, OverheadCols: 12, SpillPenalty: 0.35,
		IterSigma: 0.013, InvSigma: 0.005,
		SpikeProb: 0.006, SpikeScale: 0.10,
		RampDepth: 0.10, RampTau: 1.4,
	}
}

func noisyBroadwellStencil() Params {
	p := broadwellStencil()
	p.IterSigma, p.InvSigma = 0.021, 0.008
	p.SpikeProb, p.SpikeScale = 0.010, 0.15
	return p
}

func skylakeStencil() Params {
	p := broadwellStencil()
	p.StreamEff = 0.90
	return p
}

// genericCalibration gives uncalibrated systems the Broadwell defaults on
// every socket count.
func genericCalibration(sys hw.System) map[int]Params {
	out := make(map[int]Params, sys.Sockets)
	for s := 1; s <= sys.Sockets; s++ {
		out[s] = broadwellStencil()
	}
	return out
}
