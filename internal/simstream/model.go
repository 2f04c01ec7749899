// Package simstream models STREAM TRIAD bandwidth on the paper's systems:
// which memory subsystem a working set resides in (L1/L2/L3/DRAM), how
// affinity and socket count change the available channels, and the noise
// calibration of a bandwidth benchmark, whose samples simnoise draws from
// each configuration's Point. It is the memory-side counterpart of
// simblas and the substitute for the Xeon nodes' memory hierarchies.
//
// Calibration targets are Table VI of the paper. Two published behaviours
// drive the model's shape:
//
//   - measured DRAM bandwidth *exceeds* the theoretical peak by 5-16%,
//     which the authors attribute to "noise from the L3 cache": part of
//     the working set is still L3-resident. We model that directly with a
//     harmonic blend between DRAM and L3 service rates weighted by an
//     L3 hit fraction h = hitC * L3/W, and solve hitC per system so the
//     DRAM-region maximum equals the published number.
//   - L3 bandwidth peaks for working sets comfortably inside the cache
//     and collapses toward DRAM speed as W approaches capacity.
package simstream

import (
	"fmt"
	"math"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/simnoise"
	"rooftune/internal/units"
	"rooftune/internal/xrand"
)

// Params calibrates one (system, sockets) bandwidth curve.
type Params struct {
	DRAM units.Bandwidth // published DRAM-region peak (Table VI)
	L3   units.Bandwidth // published L3-region peak (Table VI)
	// L2 and L1 peaks for the future-work sweep (§VII); derived from L3
	// when not set explicitly.
	L2, L1 units.Bandwidth

	// Noise model.
	IterSigma, InvSigma   float64
	SpikeProb, SpikeScale float64
}

// Model is a calibrated TRIAD bandwidth model for one system.
type Model struct {
	Sys    hw.System
	params map[int]Params
	hitC   map[int]float64 // solved L3-hit constant per socket count

	// MinMeasuredPass, when positive, batches kernel passes inside each
	// measured step until the timed region lasts at least this long — the
	// standard benchmarking technique for working sets whose single pass
	// is shorter than the timer's resolution. A batched step pays the
	// parallel-region overhead once and moves passes x 24 x N bytes, so
	// L1/L2-resident sweeps recover their plateau bandwidth instead of
	// the microsecond-quantisation artifact. Zero (the default) keeps the
	// paper's one-pass-per-measurement loop bit-identical; the L3/DRAM
	// sweeps never set it.
	MinMeasuredPass time.Duration
}

// DefaultMinMeasuredPass is the timed-region floor the per-level TRIAD
// workload uses for L1/L2 residency sweeps: long enough that microsecond
// quantisation and the parallel-region barrier each distort a measurement
// by well under 3%, short enough to keep virtual sweep cost negligible.
const DefaultMinMeasuredPass = 50 * time.Microsecond

// DRAMRegionFactor is the multiple of aggregate L3 capacity beyond which a
// working set counts as DRAM-resident for reporting purposes; the maximum
// of the blended curve over that region is the model's published DRAM
// number.
const DRAMRegionFactor = 4.0

// NewModel builds the bandwidth model for a system, solving the hit
// constants so the published Table VI numbers are reproduced at the
// DRAM-region boundary.
func NewModel(sys hw.System) *Model {
	m := &Model{Sys: sys, params: map[int]Params{}, hitC: map[int]float64{}}
	calib, ok := streamCalibrations[sys.Name]
	if !ok {
		calib = genericStreamCalibration(sys)
	}
	for s, p := range calib {
		if p.L2 == 0 {
			p.L2 = units.Bandwidth(float64(p.L3) * 1.6)
		}
		if p.L1 == 0 {
			p.L1 = units.Bandwidth(float64(p.L3) * 2.8)
		}
		m.params[s] = p
		m.hitC[s] = m.solveHitC(s, p)
	}
	return m
}

// solveHitC finds c such that the blended bandwidth at the first canonical
// sweep point inside the DRAM region (W >= DRAMRegionFactor * L3) equals
// the published DRAM peak:
//
//	1 / ((1-h)/Bpure + h/BL3) = Bpub,  h = c * L3/W*
//
// where W* is that grid point. Solving at a realizable sweep size makes the
// tuner's reported DRAM maximum land exactly on Table VI.
func (m *Model) solveHitC(sockets int, p Params) float64 {
	bPure := m.pureDRAM(sockets)
	bPub := float64(p.DRAM)
	bL3 := float64(p.L3)
	if bPub <= bPure {
		return 0 // published peak below pure DRAM: no L3 assist needed
	}
	l3 := float64(m.Sys.L3Total(sockets))
	wStar := m.firstDRAMGridPoint(sockets)
	// (1-h)/bPure + h/bL3 = 1/bPub  =>  h = (1/bPure - 1/bPub) / (1/bPure - 1/bL3)
	h := (1/bPure - 1/bPub) / (1/bPure - 1/bL3)
	if h < 0 {
		h = 0
	}
	if h > 0.9 {
		h = 0.9
	}
	return h * wStar / l3
}

// canonicalGrid is units.CanonicalTriadGrid, computed once: every model
// solves its hit constants against it, and a session plans a dozen or
// more models. It is read-only.
var canonicalGrid = units.CanonicalTriadGrid()

// firstDRAMGridPoint returns the smallest canonical sweep working-set size
// that counts as DRAM-resident for this socket count.
func (m *Model) firstDRAMGridPoint(sockets int) float64 {
	l3 := float64(m.Sys.L3Total(sockets))
	for _, w := range canonicalGrid {
		if float64(w) >= DRAMRegionFactor*l3 {
			return float64(w)
		}
	}
	return DRAMRegionFactor * l3
}

// pureDRAM is the asymptotic DRAM bandwidth for enormous working sets:
// slightly below theoretical (protocol overhead).
func (m *Model) pureDRAM(sockets int) float64 {
	return float64(m.Sys.TheoreticalBandwidth(sockets)) * 0.97
}

// ParamsFor returns the calibration for a socket count.
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
	panic(fmt.Sprintf("simstream: no calibration for %s", m.Sys.Name))
}

// effectiveSockets returns how many sockets' memory channels serve the
// benchmark: spread affinity engages every requested socket; close packs
// threads and only spills with more than one socket requested when the
// thread count exceeds one socket's cores — the paper always pairs close
// with single-socket runs, so close on s>1 models partially remote access.
func (m *Model) effectiveSockets(aff hw.Affinity, sockets int) float64 {
	if sockets < 1 {
		sockets = 1
	}
	if sockets > m.Sys.Sockets {
		sockets = m.Sys.Sockets
	}
	if sockets == 1 {
		return 1
	}
	if aff == hw.AffinitySpread {
		return float64(sockets)
	}
	// close across sockets: remote accesses throttle scaling (~80%).
	return 1 + 0.8*float64(sockets-1)
}

// SteadyBandwidth returns the deterministic steady-state TRIAD bandwidth
// for a working set of `elems` vector elements (working set = 24*elems
// bytes) under the given affinity and socket count.
func (m *Model) SteadyBandwidth(elems int, aff hw.Affinity, sockets int) units.Bandwidth {
	if elems <= 0 {
		return 0
	}
	return m.SteadyBandwidthBytes(units.TriadBytes(elems), aff, sockets)
}

// SteadyBandwidthBytes is SteadyBandwidth for an arbitrary working set of
// w bytes. It is the residency-curve primitive the derived kernel models
// (simspmv, simstencil) build on: any streaming kernel's service rate is
// this curve evaluated at its working set, scaled by the kernel's own
// access-pattern efficiency.
func (m *Model) SteadyBandwidthBytes(w float64, aff hw.Affinity, sockets int) units.Bandwidth {
	if w <= 0 {
		return 0
	}
	p := m.ParamsFor(sockets)
	sEff := m.effectiveSockets(aff, sockets)
	scale := sEff / float64(clampSockets(sockets, m.Sys.Sockets))
	l1 := float64(m.Sys.L1Total(sockets))
	l2 := float64(m.Sys.L2Total(sockets))
	l3 := float64(m.Sys.L3Total(sockets))

	// Service rates of each level for this affinity (channel scaling only
	// affects DRAM; cache bandwidth scales with engaged sockets/cores).
	bL1 := float64(p.L1) * scale
	bL2 := float64(p.L2) * scale
	bL3 := float64(p.L3) * scale
	bDRAM := m.pureDRAM(sockets) * scale

	// Plateau per residency level; the DRAM region blends in residual L3
	// hits, which is what pushes measured DRAM bandwidth past theoretical
	// peak (Table VI's 105-116%). Plateaus are deliberately flat: the
	// tuner's reported per-region maxima must land on the calibrated
	// (published) values, so capacity-edge structure lives entirely in
	// the DRAM blend and the region classification.
	c := m.hitC[clampSockets(sockets, m.Sys.Sockets)]
	var b float64
	switch {
	case w <= l1:
		b = bL1
	case w <= l2:
		b = bL2
	case w <= l3*0.9:
		b = bL3
	default:
		h := math.Min(0.9, c*l3/w)
		b = 1 / ((1-h)/bDRAM + h/bL3)
	}
	return units.Bandwidth(b)
}

func clampSockets(s, max int) int {
	if s < 1 {
		return 1
	}
	if s > max {
		return max
	}
	return s
}

// The TRIAD warm-up is short: the first pass faults pages and populates
// caches, and the unmeasured Warmup call absorbs most of it.
const rampDepth, rampTau = 0.08, 1.2

// Point returns the simulated state of one TRIAD configuration: the
// steady pass time, the passes one measured step batches (see
// MinMeasuredPass), the noise, the setup cost and the bytes one step
// moves. It is a pure function of the configuration and the model, so a
// caller computes it once and streams every invocation from it.
func (m *Model) Point(elems int, aff hw.Affinity, sockets int) simnoise.Point {
	p := m.ParamsFor(sockets)
	bytes := units.TriadBytes(elems)
	steady := bytes / float64(m.SteadyBandwidth(elems, aff, sockets))
	passes := 1
	if min := m.MinMeasuredPass.Seconds(); min > 0 && steady < min {
		// Batch from the noise-free pass time so the count is a property
		// of the configuration, not of an invocation's noise draw.
		passes = int(math.Ceil(min / steady))
		if passes > 1<<24 {
			passes = 1 << 24
		}
	}
	const startup = 3 * time.Millisecond
	bw := m.pureDRAM(sockets) * 0.5
	return simnoise.Point{
		Noise: simnoise.Noise{
			IterSigma: p.IterSigma, InvSigma: p.InvSigma,
			SpikeProb: p.SpikeProb, SpikeScale: p.SpikeScale,
		},
		Steady: steady,
		Passes: passes,
		Ramp:   units.WarmupRamp(rampDepth, rampTau),
		// Parallel-region barrier with a persistent spinning team. Small
		// enough that the L1 sweep points stay above the L2 plateau, yet
		// it still dominates sub-L1 working sets (which is why the paper
		// only reports L3 and DRAM).
		Overhead: 3e-7,
		// Process start plus first-touch allocation of the three vectors
		// at half DRAM speed.
		Setup: startup + time.Duration(bytes/bw*float64(time.Second)),
		Work:  bytes * float64(passes),
	}
}

// Seed returns the noise seed of invocation inv of a TRIAD
// configuration, hashed from (seed, configuration, invocation) so
// evaluation order never changes a sample.
func Seed(seed uint64, elems int, aff hw.Affinity, sockets, inv int) uint64 {
	return xrand.Mix(seed, 0x7421ad, uint64(elems), uint64(aff),
		uint64(sockets), uint64(inv))
}

// streamCalibrations pins Table VI: DRAM and L3 peaks per system for
// single- and dual-socket configurations.
var streamCalibrations = map[string]map[int]Params{
	"2650v4": {
		1: {DRAM: units.GBps(40.42), L3: units.GBps(256.07),
			IterSigma: 0.012, InvSigma: 0.005, SpikeProb: 0.006, SpikeScale: 0.10},
		2: {DRAM: units.GBps(80.65), L3: units.GBps(452.05),
			IterSigma: 0.014, InvSigma: 0.006, SpikeProb: 0.006, SpikeScale: 0.10},
	},
	"2695v4": {
		1: {DRAM: units.GBps(43.29), L3: units.GBps(371.41),
			IterSigma: 0.020, InvSigma: 0.008, SpikeProb: 0.010, SpikeScale: 0.15},
		2: {DRAM: units.GBps(76.32), L3: units.GBps(661.68),
			IterSigma: 0.022, InvSigma: 0.009, SpikeProb: 0.010, SpikeScale: 0.15},
	},
	"Gold 6132": {
		1: {DRAM: units.GBps(68.32), L3: units.GBps(422.87),
			IterSigma: 0.013, InvSigma: 0.005, SpikeProb: 0.006, SpikeScale: 0.10},
		2: {DRAM: units.GBps(132.18), L3: units.GBps(814.82),
			IterSigma: 0.015, InvSigma: 0.006, SpikeProb: 0.006, SpikeScale: 0.10},
	},
	"Gold 6148": {
		1: {DRAM: units.GBps(74.16), L3: units.GBps(547.11),
			IterSigma: 0.013, InvSigma: 0.005, SpikeProb: 0.006, SpikeScale: 0.10},
		2: {DRAM: units.GBps(139.80), L3: units.GBps(1000.10),
			IterSigma: 0.015, InvSigma: 0.006, SpikeProb: 0.006, SpikeScale: 0.10},
	},
}

// genericStreamCalibration gives uncalibrated systems plausible STREAM
// efficiencies: DRAM at ~108% of theoretical (the L3-assist effect the
// paper measures) and L3 at ~6.5x a socket's DRAM channel bandwidth.
func genericStreamCalibration(sys hw.System) map[int]Params {
	out := make(map[int]Params, sys.Sockets)
	for s := 1; s <= sys.Sockets; s++ {
		bt := float64(sys.TheoreticalBandwidth(s))
		out[s] = Params{
			DRAM:      units.Bandwidth(bt * 1.08),
			L3:        units.Bandwidth(bt * 6.5),
			IterSigma: 0.013, InvSigma: 0.005,
			SpikeProb: 0.006, SpikeScale: 0.10,
		}
	}
	return out
}
