// Package simspmv models CSR SpMV performance on the paper's systems: the
// substitute for hardware we do not have, exactly as simblas stands in for
// MKL DGEMM and simstream for the Xeon memory hierarchies. The paper
// publishes no SpMV table, so the model is calibrated *derivatively*: its
// service rate is simstream's Table VI residency curve evaluated at the
// kernel's working set, scaled by a documented gather efficiency (an
// irregular 8-byte gather cannot saturate the streaming bandwidth the
// STREAM kernels reach), and shaped over the tuning axis — the row-chunk
// size — by a scheduling-overhead-versus-load-imbalance response surface:
//
//   - tiny chunks pay a per-task dispatch cost (the pool hands out more
//     tasks than rows can amortise),
//   - huge chunks starve cores (fewer chunks than workers leaves the team
//     partially idle and the tail chunk ragged),
//
// so the surface has an interior argmax, which is what gives the
// autotuner something real to find. The noise stream every simulated
// model shares (simnoise: lognormal body, rare spikes, per-invocation
// shift), with a warm-up ramp of its own, drives the adaptive stop
// conditions.
package simspmv

import (
	"math"
	"time"

	"rooftune/internal/hw"
	"rooftune/internal/simnoise"
	"rooftune/internal/simstream"
	"rooftune/internal/units"
	"rooftune/internal/xrand"
)

// Params calibrates one system's SpMV behaviour.
type Params struct {
	// GatherEff is the fraction of the streaming bandwidth the CSR gather
	// sustains at the ideal chunk size. Measured SpMV on Xeons typically
	// lands at 70-90% of STREAM; the default is 0.82.
	GatherEff float64
	// OverheadRows is the per-task dispatch cost expressed in equivalent
	// rows of work; chunks much smaller than this are overhead-dominated.
	OverheadRows float64

	// Noise model, same family as simblas/simstream.
	IterSigma, InvSigma   float64
	SpikeProb, SpikeScale float64
	RampDepth, RampTau    float64
}

// Model is a calibrated SpMV performance model for one system.
type Model struct {
	Sys hw.System
	// BW is the system's calibrated residency curve (Table VI), the
	// service rate every streaming kernel shares.
	BW     *simstream.Model
	params map[int]Params
}

// NewModel builds the SpMV model for a system. Like the other simulated
// models it never fails: systems without a calibration entry get the
// documented generic parameters.
func NewModel(sys hw.System) *Model {
	m := &Model{Sys: sys, BW: simstream.NewModel(sys), params: map[int]Params{}}
	calib, ok := spmvCalibrations[sys.Name]
	if !ok {
		calib = genericCalibration(sys)
	}
	for s, p := range calib {
		m.params[s] = p
	}
	return m
}

// ParamsFor returns the calibration for a socket count, falling back to
// the nearest calibrated count like the sibling models.
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

// Traffic returns the kernel's minimum memory traffic in bytes for an
// n x n matrix with nnzPerRow stored elements per row; it mirrors
// spmv.CSR.Bytes exactly so the simulated and native kernels land at the
// same operational intensity.
func Traffic(n, nnzPerRow int) float64 {
	nnz := float64(n) * float64(nnzPerRow)
	return 12*nnz + 8*float64(n+1) + 16*float64(n)
}

// Flops returns the floating-point work of one y = A*x, mirroring
// spmv.CSR.Flops.
func Flops(n, nnzPerRow int) float64 { return 2 * float64(n) * float64(nnzPerRow) }

// Intensity returns the kernel's operational intensity.
func Intensity(n, nnzPerRow int) units.Intensity {
	return units.Intensity(Flops(n, nnzPerRow) / Traffic(n, nnzPerRow))
}

// ChunkEff returns the deterministic efficiency of a row-chunk size on
// the given socket count: dispatch overhead times load balance, both in
// [0, 1], with an interior maximum. Exported so tests can assert the
// argmax the tuner must find.
func (m *Model) ChunkEff(n, chunk, sockets int) float64 {
	if chunk < 1 {
		chunk = 1
	}
	if chunk > n {
		chunk = n
	}
	p := m.ParamsFor(sockets)
	cores := float64(m.Sys.Cores(sockets))
	tasks := math.Ceil(float64(n) / float64(chunk))
	// Dispatch overhead: each task costs OverheadRows rows' worth of time.
	overhead := float64(chunk) / (float64(chunk) + p.OverheadRows)
	// Load balance: the busiest core owns ceil(tasks/cores) chunks; the
	// ideal share is n/cores rows.
	busiest := math.Ceil(tasks/cores) * float64(chunk)
	balance := float64(n) / cores / busiest
	if balance > 1 {
		balance = 1
	}
	return overhead * balance
}

// SteadyFlops returns the deterministic steady-state SpMV throughput for
// an n x n matrix with nnzPerRow stored elements per row, evaluated at
// the given row-chunk size and socket count. Multi-socket runs use spread
// affinity, engaging every socket's channels, matching how the workload
// plans its sweeps.
func (m *Model) SteadyFlops(n, nnzPerRow, chunk, sockets int) units.Flops {
	if n <= 0 || nnzPerRow <= 0 {
		return 0
	}
	p := m.ParamsFor(sockets)
	aff := hw.AffinityClose
	if sockets > 1 {
		aff = hw.AffinitySpread
	}
	bw := float64(m.BW.SteadyBandwidthBytes(Traffic(n, nnzPerRow), aff, sockets))
	flops := bw * float64(Intensity(n, nnzPerRow)) * p.GatherEff * m.ChunkEff(n, chunk, sockets)
	return units.Flops(flops)
}

// Point returns the simulated state of one SpMV configuration: steady
// pass time, warm-up ramp, noise, setup cost and work. It is a pure
// function of the configuration, computed once per configuration.
func (m *Model) Point(n, nnzPerRow, chunk, sockets int) simnoise.Point {
	p := m.ParamsFor(sockets)
	flops := Flops(n, nnzPerRow)
	return simnoise.Point{
		Noise: simnoise.Noise{
			IterSigma: p.IterSigma, InvSigma: p.InvSigma,
			SpikeProb: p.SpikeProb, SpikeScale: p.SpikeScale,
		},
		Steady: flops / float64(m.SteadyFlops(n, nnzPerRow, chunk, sockets)),
		Passes: 1,
		Ramp:   units.WarmupRamp(p.RampDepth, p.RampTau),
		// Parallel-region overhead per pass, as in simstream.
		Overhead: 5e-7,
		Setup:    m.setupTime(n, nnzPerRow, sockets),
		Work:     flops,
	}
}

// Seed returns the noise seed of invocation inv of an SpMV
// configuration. As in the sibling models it hashes (seed,
// configuration, invocation), so evaluation order never changes a sample.
func Seed(seed uint64, n, nnzPerRow, chunk, sockets, inv int) uint64 {
	return xrand.Mix(seed, 0x5b317, uint64(n), uint64(nnzPerRow),
		uint64(chunk), uint64(sockets), uint64(inv))
}

// setupTime models process start, synthetic-matrix construction (a few
// nanoseconds per stored element) and first-touch of the arrays at half
// DRAM speed.
func (m *Model) setupTime(n, nnzPerRow, sockets int) time.Duration {
	const startup = 3 * time.Millisecond
	const buildPerNNZ = 25e-9 // column draw + sort amortised
	nnz := float64(n) * float64(nnzPerRow)
	bw := float64(m.Sys.TheoreticalBandwidth(sockets)) * 0.5
	build := nnz * buildPerNNZ
	touch := Traffic(n, nnzPerRow) / bw
	return startup + time.Duration((build+touch)*float64(time.Second))
}

// spmvCalibrations holds per-system overrides. The gather efficiencies
// are slightly higher on the Skylake Golds (larger out-of-order windows
// hide more gather latency) than on the Broadwells; noise mirrors each
// system's TRIAD character, with a deeper ramp — SpMV's warm-up faults
// both the matrix and the index streams.
var spmvCalibrations = map[string]map[int]Params{
	"2650v4":    {1: broadwellSpMV(), 2: broadwellSpMV()},
	"2695v4":    {1: noisyBroadwellSpMV(), 2: noisyBroadwellSpMV()},
	"Gold 6132": {1: skylakeSpMV(), 2: skylakeSpMV()},
	"Gold 6148": {1: skylakeSpMV(), 2: skylakeSpMV()},
}

func broadwellSpMV() Params {
	return Params{
		GatherEff: 0.80, OverheadRows: 24,
		IterSigma: 0.015, InvSigma: 0.006,
		SpikeProb: 0.008, SpikeScale: 0.12,
		RampDepth: 0.12, RampTau: 1.6,
	}
}

func noisyBroadwellSpMV() Params {
	p := broadwellSpMV()
	p.IterSigma, p.InvSigma = 0.024, 0.009
	p.SpikeProb, p.SpikeScale = 0.012, 0.16
	return p
}

func skylakeSpMV() Params {
	return Params{
		GatherEff: 0.84, OverheadRows: 24,
		IterSigma: 0.014, InvSigma: 0.005,
		SpikeProb: 0.007, SpikeScale: 0.11,
		RampDepth: 0.10, RampTau: 1.5,
	}
}

// genericCalibration gives uncalibrated systems the Broadwell defaults on
// every socket count.
func genericCalibration(sys hw.System) map[int]Params {
	out := make(map[int]Params, sys.Sockets)
	for s := 1; s <= sys.Sockets; s++ {
		out[s] = broadwellSpMV()
	}
	return out
}
