package bench

import (
	"math"
	"sync/atomic"
)

// Incumbent is the incumbent-best bound that stop condition 4 prunes
// against. The evaluator loads it exactly once, at evaluation entry, so a
// whole evaluation sees one consistent bound; implementations therefore
// only need Bound to be safe for concurrent use, not stable over time.
//
// The search carries a plain scalar (Fixed). A bound shared across
// processes — the distributed tier pushing incumbents into a running
// search — is an AtomicIncumbent: its bound is monotone — it only ever
// rises to means that some configuration actually achieved — so pruning
// stays conservative no matter when pushes arrive.
type Incumbent interface {
	// Bound returns the current incumbent metric value in base units, or
	// NoBest when no configuration has finished yet.
	Bound() float64
}

// Fixed is the serial Incumbent: a snapshot bound that never changes
// during the evaluation. It is what the one-case-at-a-time search loops
// pass, preserving the original scalar-`best` semantics bit-for-bit.
type Fixed float64

// Bound implements Incumbent.
func (f Fixed) Bound() float64 { return float64(f) }

// None is the Incumbent to pass when no incumbent configuration exists;
// stop condition 4 never fires against it.
var None Incumbent = Fixed(NoBest)

// AtomicIncumbent is a monotone incumbent bound shared by concurrent
// writers: readers load it before each evaluation, writers CAS-max it
// after. The bound only ever increases, and only to values some
// configuration's finished (non-pruned) evaluation actually reported, so
// any pruning decision taken against it is conservative — the pruned
// configuration lost to a true incumbent, never to a speculative value.
//
// The zero value is not ready for use; call NewAtomicIncumbent.
type AtomicIncumbent struct {
	bits atomic.Uint64
}

// NewAtomicIncumbent returns a shared bound holding NoBest.
func NewAtomicIncumbent() *AtomicIncumbent {
	a := &AtomicIncumbent{}
	a.bits.Store(math.Float64bits(NoBest))
	return a
}

// Bound implements Incumbent.
func (a *AtomicIncumbent) Bound() float64 {
	return math.Float64frombits(a.bits.Load())
}

// Offer raises the bound to v if v beats it. NaN offers are ignored; the
// bound stays a totally ordered maximum.
func (a *AtomicIncumbent) Offer(v float64) {
	if math.IsNaN(v) {
		return
	}
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
