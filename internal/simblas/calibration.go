package simblas

import (
	"math"

	"rooftune/internal/hw"
)

// calibrations holds the per-system, per-socket-count response-surface
// parameters fitted to the paper's published measurements:
//
//   - targets and efficiencies: Tables IV and V,
//   - square-matrix anchor: §VI-A (n=m=k=1000 at 55.69% on Gold 6132 S2,
//     and Intel's 52.08% on the Silver 4110 in single precision),
//   - noise levels: §V notes clock-frequency scaling could not be
//     disabled, making results less stable — most visible on the 2695v4,
//     whose optimisation tables (Table IX) show technique-to-technique
//     spread an order of magnitude larger than the other systems. The
//     2695v4 therefore gets a deep, slow warm-up ramp and a larger
//     iteration/invocation sigma; that combination is what reproduces the
//     paper's min_count anomaly (§VI-C).
//
// The kernel widths were chosen so the square-matrix anchors fall out
// correctly; the calibration tests in calibration_test.go pin all of
// these properties.
var calibrations = map[string]map[int]Params{
	"2650v4": {
		1: {
			TargetN: 1000, TargetM: 4096, TargetK: 128, TargetEff: 0.9676,
			WN: 0.045, WM: 0.040, WK: 0.065, Floor: 0.62,
			IterSigma: 0.010, InvSigma: 0.004,
			SpikeProb: 0.004, SpikeScale: 0.08,
			RampDepth: 0.06, RampTau: 2,
		},
		2: {
			TargetN: 2000, TargetM: 2048, TargetK: 64, TargetEff: 0.9156,
			WN: 0.045, WM: 0.040, WK: 0.060, Floor: 0.60,
			IterSigma: 0.012, InvSigma: 0.005,
			SpikeProb: 0.004, SpikeScale: 0.08,
			RampDepth: 0.06, RampTau: 2,
		},
	},
	// The 2695v4's steady efficiencies carry a x1.005 compensation for
	// its warm-up ramp (depth 0.28, tau 5): the mean over a full
	// 200-iteration invocation is ~0.5% below steady state, and Table IV
	// reports that ramp-inclusive mean. The deep ramp plus the larger
	// noise sigma reproduce the paper's §VI-C anomaly: with min_count=2,
	// stop condition 4 prunes the top configurations during their ramp.
	"2695v4": {
		1: {
			TargetN: 2000, TargetM: 4096, TargetK: 128, TargetEff: 0.9857,
			WN: 0.050, WM: 0.042, WK: 0.070, Floor: 0.60,
			IterSigma: 0.026, InvSigma: 0.010,
			SpikeProb: 0.010, SpikeScale: 0.15,
			RampDepth: 0.28, RampTau: 5,
		},
		2: {
			TargetN: 4000, TargetM: 2048, TargetK: 128, TargetEff: 0.9241,
			WN: 0.050, WM: 0.042, WK: 0.070, Floor: 0.58,
			IterSigma: 0.028, InvSigma: 0.012,
			SpikeProb: 0.012, SpikeScale: 0.15,
			RampDepth: 0.28, RampTau: 5,
		},
	},
	"Gold 6132": {
		1: {
			TargetN: 1000, TargetM: 4096, TargetK: 128, TargetEff: 0.8720,
			WN: 0.050, WM: 0.045, WK: 0.070, Floor: 0.60,
			IterSigma: 0.012, InvSigma: 0.005,
			SpikeProb: 0.005, SpikeScale: 0.10,
			RampDepth: 0.06, RampTau: 2,
		},
		2: {
			// Square anchor: eff(1000,1000,1000) must be 0.5569 (§VI-A)
			// while the target is 0.7513; with these widths the square
			// point sits at kern*u = 0.741 of target. See
			// TestGold6132SquareAnchor.
			TargetN: 4000, TargetM: 512, TargetK: 128, TargetEff: 0.7513,
			WN: 0.088, WM: 0.082, WK: 0.105, Floor: 0.58,
			IterSigma: 0.014, InvSigma: 0.006,
			SpikeProb: 0.005, SpikeScale: 0.10,
			RampDepth: 0.06, RampTau: 2,
		},
	},
	"Gold 6148": {
		1: {
			TargetN: 4000, TargetM: 512, TargetK: 128, TargetEff: 0.9259,
			WN: 0.050, WM: 0.045, WK: 0.070, Floor: 0.60,
			IterSigma: 0.012, InvSigma: 0.005,
			SpikeProb: 0.005, SpikeScale: 0.10,
			RampDepth: 0.06, RampTau: 2,
		},
		2: {
			TargetN: 4000, TargetM: 1024, TargetK: 128, TargetEff: 0.7836,
			WN: 0.050, WM: 0.045, WK: 0.065, Floor: 0.58,
			IterSigma: 0.014, InvSigma: 0.006,
			SpikeProb: 0.005, SpikeScale: 0.10,
			RampDepth: 0.06, RampTau: 2,
		},
	},
	// Intel's own benchmark of the Silver 4110 (Hu & Story) only swept
	// square matrices and found m=n=k=1000 best, at 52.08% of the
	// single-precision peak (Eq. 12). Calibrated in SP with a square
	// target so the Intel comparison experiment recovers their number.
	"Silver 4110": {
		2: {
			TargetN: 1000, TargetM: 1000, TargetK: 1000, TargetEff: 0.5208,
			WN: 0.050, WM: 0.045, WK: 0.060, Floor: 0.60,
			IterSigma: 0.015, InvSigma: 0.006,
			SpikeProb: 0.005, SpikeScale: 0.10,
			RampDepth: 0.06, RampTau: 2,
			SinglePrecision: true,
		},
	},
}

// genericCalibration builds a reasonable surface for systems without a
// published calibration: the target sits at (2048, 2048, 128) — a large
// slab with the near-universal k=128 sweet spot the paper observes — with
// efficiency scaled by vector generation (AVX-512 machines are harder to
// feed, §VI-A) and socket count (interconnect overhead, §VII).
func genericCalibration(sys hw.System) map[int]Params {
	out := make(map[int]Params, sys.Sockets)
	for s := 1; s <= sys.Sockets; s++ {
		eff := 0.95
		if sys.Vector == hw.AVX512 {
			eff = 0.90
		}
		// Multi-socket scaling loses ~8% per extra socket.
		eff *= math.Pow(0.92, float64(s-1))
		out[s] = Params{
			TargetN: 2048, TargetM: 2048, TargetK: 128, TargetEff: eff,
			WN: 0.050, WM: 0.045, WK: 0.065, Floor: 0.60,
			IterSigma: 0.012, InvSigma: 0.005,
			SpikeProb: 0.005, SpikeScale: 0.10,
			RampDepth: 0.15, RampTau: 3,
		}
	}
	return out
}
