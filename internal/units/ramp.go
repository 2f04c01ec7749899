package units

import (
	"fmt"
	"math"
	"sync"
)

// Ramp is a warm-up transient: iteration i (0-based) of an invocation
// runs at steady performance scaled by 1 - depth*exp(-(i+1)/tau), the
// ramp every simulated kernel model applies. The factor depends only on
// the iteration number, so it is tabulated once per (depth, tau) instead
// of costing one math.Exp per simulated sample.
//
// The table is built from that same expression, so every entry is
// bit-identical to evaluating it directly. It ends where
// depth*exp(-(i+1)/tau) drops below 2^-60: from there on 1 minus it
// rounds to exactly 1, which At returns.
type Ramp struct {
	table []float64
}

// rampTail is the magnitude below which 1 - x rounds to exactly 1 (any
// |x| < 2^-54 does; 2^-60 leaves a wide margin).
const rampTail = 0x1p-60

type rampKey struct{ depth, tau float64 }

// ramps memoises one table per (depth, tau) for the whole process; the
// calibrations use a handful of pairs, so it stays tiny.
var ramps sync.Map // rampKey -> Ramp

// WarmupRamp returns the memoised ramp for (depth, tau). It is safe for
// concurrent use. It panics unless tau is positive and finite and depth
// is finite: otherwise the transient never dies away.
func WarmupRamp(depth, tau float64) Ramp {
	key := rampKey{depth, tau}
	if r, ok := ramps.Load(key); ok {
		return r.(Ramp)
	}
	r, _ := ramps.LoadOrStore(key, newRamp(depth, tau))
	return r.(Ramp)
}

func newRamp(depth, tau float64) Ramp {
	if !(tau > 0) || math.IsInf(tau, 0) || math.IsNaN(depth) || math.IsInf(depth, 0) {
		panic(fmt.Sprintf("units: warm-up ramp depth=%g tau=%g: need finite depth and finite tau > 0", depth, tau))
	}
	var table []float64
	for i := 0; math.Abs(depth*math.Exp(-float64(i+1)/tau)) >= rampTail; i++ {
		table = append(table, 1-depth*math.Exp(-float64(i+1)/tau))
	}
	return Ramp{table: table}
}

// At returns the ramp factor of iteration iter (0-based).
func (r Ramp) At(iter int) float64 {
	if iter < len(r.table) {
		return r.table[iter]
	}
	return 1
}
