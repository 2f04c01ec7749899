// Package simblas models the performance of a vendor-optimised DGEMM
// (Intel MKL in the paper) on the paper's four Xeon systems. It is the
// substitute for hardware we do not have: the autotuner only ever sees
// `(n, m, k, sockets) -> stream of timed samples`, so a model that
// reproduces the paper's efficiency surface exercises the identical
// tuner and stop-condition code paths.
//
// The model is an empirical response surface calibrated per system and
// socket count to the published results:
//
//   - the surface's argmax over the paper's search space is the optimal
//     configuration of Table V,
//   - efficiency at the argmax matches Table IV (e.g. 96.76% of the
//     2650v4 single-socket theoretical peak),
//   - square matrices n=m=k=1000 land near the 55.69% the paper measures
//     on the Gold 6132 (§VI-A),
//   - small dimensions perform poorly (§IV-A), which is what justifies
//     the paper's search-space reduction,
//
// combined with a warm-up ramp and the measurement noise every simulated
// model shares (simnoise: lognormal body, rare spikes, per-invocation
// shifts), which drive the statistical stop conditions the paper
// studies. Point is what the simulator measures for one configuration.
package simblas

import (
	"fmt"
	"math"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/simnoise"
	"rooftune/internal/units"
	"rooftune/internal/xrand"
)

// Params is the per-(system, sockets) calibration of the response surface
// and noise model.
type Params struct {
	// Target is the optimal configuration (Table V) and its efficiency
	// relative to theoretical peak (Table IV).
	TargetN, TargetM, TargetK int
	TargetEff                 float64

	// Anisotropic kernel widths in log2 space. Larger width = faster
	// efficiency decay away from the target along that axis.
	WN, WM, WK float64

	// Floor is the kernel's asymptotic efficiency fraction far from the
	// target (before the utilisation terms), as a fraction of TargetEff.
	Floor float64

	// IterSigma is the lognormal sigma of per-iteration noise;
	// InvSigma the lognormal sigma of the per-invocation multiplier.
	IterSigma, InvSigma float64

	// SpikeProb is the per-iteration probability of an OS-jitter spike;
	// SpikeScale its mean relative magnitude.
	SpikeProb, SpikeScale float64

	// RampDepth and RampTau describe the warm-up transient: iteration i
	// runs at steady performance scaled by 1 - RampDepth*exp(-(i+1)/RampTau).
	// The paper's 2695v4 exhibits configurations that "increase
	// substantially during the evaluation process" (§III-C4) — a deep,
	// slow ramp — which is what makes min_count=2 unsafe there.
	RampDepth, RampTau float64

	// SinglePrecision switches the peak to the SP figure (Eq. 12); used
	// for the Silver 4110 comparison against Intel's own numbers.
	SinglePrecision bool
}

// Model is a calibrated DGEMM performance model for one system.
type Model struct {
	Sys    hw.System
	params map[int]Params // keyed by socket count
	// utilisation scale: grain per core for the parallel-slab term
	utilGrain float64
}

// NewModel builds the model for a calibrated system. Systems without a
// calibration entry get a generic surface (documented defaults), so
// user-defined systems still work.
func NewModel(sys hw.System) *Model {
	m := &Model{Sys: sys, params: map[int]Params{}, utilGrain: 2048}
	calib, ok := calibrations[sys.Name]
	if !ok {
		calib = genericCalibration(sys)
	}
	for s, p := range calib {
		m.params[s] = p
	}
	return m
}

// ParamsFor returns the calibration used for the given socket count,
// clamped to the system's socket range.
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
	// Fall back to the nearest calibrated socket count.
	for s := sockets; s >= 1; s-- {
		if p, ok := m.params[s]; ok {
			return p
		}
	}
	for s := sockets; s <= m.Sys.Sockets; s++ {
		if p, ok := m.params[s]; ok {
			return p
		}
	}
	panic(fmt.Sprintf("simblas: no calibration for %s", m.Sys.Name))
}

// Peak returns the theoretical peak the model's efficiencies are relative
// to (DP by default, SP for SinglePrecision calibrations).
func (m *Model) Peak(sockets int) units.Flops {
	p := m.ParamsFor(sockets)
	if p.SinglePrecision {
		return m.Sys.TheoreticalFlopsSP(sockets)
	}
	return m.Sys.TheoreticalFlops(sockets)
}

// SteadyEff returns the deterministic steady-state efficiency (fraction of
// theoretical peak) for a configuration. It is the noise-free response
// surface; the argmax over any grid containing the calibrated target is
// the target itself, with at least a 1% margin over every other point.
func (m *Model) SteadyEff(n, mm, k, sockets int) float64 {
	p := m.ParamsFor(sockets)
	if n <= 0 || mm <= 0 || k <= 0 {
		return 0
	}
	dn := math.Log2(float64(n) / float64(p.TargetN))
	dm := math.Log2(float64(mm) / float64(p.TargetM))
	dk := math.Log2(float64(k) / float64(p.TargetK))
	d2 := p.WN*dn*dn + p.WM*dm*dm + p.WK*dk*dk
	kern := p.Floor + (1-p.Floor)*math.Exp(-d2)

	// Utilisation: a small slab starves the cores (parallel grain), and a
	// shallow k starves the micro-kernel pipeline. Normalised so the
	// target sits at 1.
	u := m.util(n, mm, k, sockets) / m.util(p.TargetN, p.TargetM, p.TargetK, sockets)

	raw := kern * u
	if d2 > 1e-12 {
		// Preserve a strict argmax at the calibrated target: no competitor
		// exceeds 96% of it, leaving headroom for the deterministic jitter
		// and the stochastic measurement noise. The paper's own data shows
		// this gap scale: its Default searches land within a fraction of a
		// percent of the exhaustive optimum on every system (Tables IV vs
		// VIII-XI), implying a clear winner.
		if raw > 0.96 {
			raw = 0.96
		}
		// Deterministic per-configuration fingerprint (±0.25%), modelling
		// alignment and association effects the smooth surface misses.
		// Zero at the target by construction of the scale factor.
		raw *= 1 + 0.0025*m.jitter(n, mm, k, sockets)*(1-math.Exp(-d2))
	}
	eff := p.TargetEff * raw
	if eff < 0.002 {
		eff = 0.002
	}
	return eff
}

// util is the generic utilisation term: slab parallelism times pipeline
// depth.
func (m *Model) util(n, mm, k, sockets int) float64 {
	cores := float64(m.Sys.Cores(sockets))
	slab := float64(n) * float64(mm)
	u1 := slab / (slab + cores*m.utilGrain)
	u2 := float64(k) / (float64(k) + 16)
	return u1 * u2
}

// jitter returns a deterministic value in [-1, 1] derived from the
// configuration, stable across runs.
func (m *Model) jitter(n, mm, k, sockets int) float64 {
	h := uint64(2166136261)
	for _, v := range []int{n, mm, k, sockets} {
		h ^= uint64(v)
		h *= 16777619
		h ^= h >> 13
	}
	for _, c := range m.Sys.Name {
		h ^= uint64(c)
		h *= 16777619
	}
	return float64(int64(h%2000001)-1000000) / 1e6
}

// SteadyFlops returns the deterministic steady-state throughput for a
// configuration.
func (m *Model) SteadyFlops(n, mm, k, sockets int) units.Flops {
	return units.Flops(float64(m.Peak(sockets)) * m.SteadyEff(n, mm, k, sockets))
}

// Point returns the simulated state of one configuration: its
// steady-state time, warm-up ramp, noise, setup cost and work. It is a
// pure function of the configuration, so a caller computes it once and
// streams every invocation from it (see simnoise).
func (m *Model) Point(n, mm, k, sockets int) simnoise.Point {
	p := m.ParamsFor(sockets)
	work := units.DGEMMFlops(n, mm, k)
	return simnoise.Point{
		Noise: simnoise.Noise{
			IterSigma: p.IterSigma, InvSigma: p.InvSigma,
			SpikeProb: p.SpikeProb, SpikeScale: p.SpikeScale,
		},
		Steady: work / float64(m.SteadyFlops(n, mm, k, sockets)),
		Passes: 1,
		Ramp:   units.WarmupRamp(p.RampDepth, p.RampTau),
		// Loop and timer overhead.
		Overhead: 2e-6,
		Setup:    m.setupTime(n, mm, k, sockets),
		Work:     work,
	}
}

// Seed returns the noise seed of invocation inv of a configuration. It
// hashes (seed, configuration, invocation), so evaluation order never
// changes a sample: two techniques that measure the same iteration of the
// same invocation see the same value, exactly as if replaying a recorded
// machine. This mirrors the invocation-level repetition of Georges et
// al. that the paper adopts: each invocation has its own performance
// shift and warm-up state.
func Seed(seed uint64, n, mm, k, sockets, inv int) uint64 {
	return xrand.Mix(seed, 0xd6e8, uint64(n), uint64(mm), uint64(k),
		uint64(sockets), uint64(inv))
}

// setupTime is the virtual cost of process start plus matrix
// initialisation: a fixed startup latency plus first-touch of the three
// matrices at half the socket-local DRAM bandwidth.
func (m *Model) setupTime(n, mm, k, sockets int) time.Duration {
	const startup = 3 * time.Millisecond
	bytes := 8 * (float64(n)*float64(k) +
		float64(k)*float64(mm) +
		float64(n)*float64(mm))
	bw := float64(m.Sys.TheoreticalBandwidth(sockets)) * 0.5
	return startup + time.Duration(bytes/bw*float64(time.Second))
}
