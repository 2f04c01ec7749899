package core

import (
	"time"

	"rooftune/internal/bench"
)

// Technique is one row of the optimisation-comparison tables
// (Tables VIII-XI): a named combination of evaluation budget and search
// order.
type Technique struct {
	Name   string
	Budget bench.Budget
	Order  Order
}

// HandTunedIters holds the per-system hand-tuned iteration counts of
// Table VII: Time-matched (tuned until total runtime matches the most
// optimised technique) and Accuracy-matched (tuned upward until the
// result matches the optimised techniques' accuracy).
type HandTunedIters struct {
	Time, Accuracy int
}

// HandTuned reproduces Table VII.
var HandTuned = map[string]HandTunedIters{
	"2650v4":    {Time: 7, Accuracy: 20},
	"2695v4":    {Time: 15, Accuracy: 180},
	"Gold 6132": {Time: 18, Accuracy: 180},
	"Gold 6148": {Time: 30, Accuracy: 150},
}

// Techniques builds the full technique matrix for a system. minCount is
// the stop-condition-4 lower bound (2 by default; the paper re-runs the
// 2695v4 with 100). Hand-tuned techniques use Table VII's iteration
// counts for the system; unknown systems default to 10/100.
func Techniques(system string, minCount int) []Technique {
	ht, ok := HandTuned[system]
	if !ok {
		ht = HandTunedIters{Time: 10, Accuracy: 100}
	}
	def := bench.DefaultBudget()

	handTimeB := def
	handTimeB.Invocations = 1
	handTimeB.MaxIterations = ht.Time

	handAccB := def
	handAccB.Invocations = 1
	handAccB.MaxIterations = ht.Accuracy

	singleB := def
	singleB.Invocations = 1
	singleB.MaxIterations = 1
	singleB.MaxTime = time.Hour // a single iteration never times out

	mk := func(confidence, inner, outer bool) bench.Budget {
		b := def.WithFlags(confidence, inner, outer)
		b.MinCount = minCount
		return b
	}

	return []Technique{
		{Name: "Default", Budget: def, Order: OrderForward},
		{Name: "Hand-tuned Time", Budget: handTimeB, Order: OrderForward},
		{Name: "Hand-tuned Accuracy", Budget: handAccB, Order: OrderForward},
		{Name: "Single", Budget: singleB, Order: OrderForward},
		{Name: "Confidence", Budget: mk(true, false, false), Order: OrderForward},
		{Name: "C+Inner", Budget: mk(true, true, false), Order: OrderForward},
		{Name: "C+Inner+R", Budget: mk(true, true, false), Order: OrderReverse},
		{Name: "C+I+Outer", Budget: mk(true, true, true), Order: OrderForward},
		{Name: "C+I+O+R", Budget: mk(true, true, true), Order: OrderReverse},
	}
}

// TechniqueByName returns the named technique for a system, or false.
func TechniqueByName(system, name string, minCount int) (Technique, bool) {
	for _, t := range Techniques(system, minCount) {
		if t.Name == name {
			return t, true
		}
	}
	return Technique{}, false
}
