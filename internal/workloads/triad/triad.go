// Package triad is the STREAM TRIAD memory workload: it plans the
// working-set sweeps whose tuned winners become the roofline's bandwidth
// ceilings, split into cache-residency regions. On simulated systems the
// paper's §III-B L3/DRAM pair is the default, and the §VII future-work
// extension — per-level L1/L2/L3/DRAM residency sweeps, the cache-aware
// roofline — is selectable via Params.TriadLevels. Per-level sweeps are
// chained in increasing-bandwidth order (DRAM seeds L3 seeds L2 seeds
// L1), so a session running with sweep chaining pre-prunes each region's
// search with the previous region's measured winner. Native builds keep
// the assumed-LLC cache/DRAM split (the host's true cache boundaries are
// unknown), likewise chained DRAM-to-cache. It registers itself as
// "triad".
package triad

import (
	"fmt"
	"sort"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
	"rooftune/internal/simstream"
	"rooftune/internal/sweep"
	"rooftune/internal/units"
	"rooftune/internal/workload"
)

func init() { workload.MustRegister(Workload{}) }

// Workload implements workload.Workload for TRIAD.
type Workload struct{}

// Name implements workload.Workload.
func (Workload) Name() string { return "triad" }

// DefaultLevels is the residency-region set planned when Params.TriadLevels
// is empty: the paper's published pair.
func DefaultLevels() []string { return []string{"L3", "DRAM"} }

// Plan builds one bandwidth sweep per (socket configuration x residency
// region) on simulated systems, or one per residency region on the native
// host. A region whose case list filters to empty under the session's
// TriadLo/TriadHi bounds is recorded as a plan warning naming the region
// — the roofline will miss that ceiling, and silence here previously hid
// exactly that. Each socket configuration's regions are chained in
// increasing-bandwidth order via SeedFrom edges; an empty region drops
// out of its chain and the next region seeds from the nearest planned
// slower one.
func (Workload) Plan(t workload.Target, p workload.Params) (workload.Plan, error) {
	if p.TriadLo > p.TriadHi {
		return workload.Plan{}, fmt.Errorf("triad: working-set bounds inverted (lo %v > hi %v)", p.TriadLo, p.TriadHi)
	}
	if t.IsNative() {
		return planNative(t.Native, p), nil
	}
	levels, err := resolveLevels(p.TriadLevels)
	if err != nil {
		return workload.Plan{}, err
	}
	return planSimulated(*t.Sys, p, levels), nil
}

// resolveLevels validates the requested residency regions against
// hw.CacheLevels and returns them in canonical decreasing-bandwidth
// order (L1 first), defaulting to the paper's L3+DRAM pair.
func resolveLevels(requested []string) ([]string, error) {
	if len(requested) == 0 {
		return DefaultLevels(), nil
	}
	if err := hw.ValidateCacheLevels(requested); err != nil {
		return nil, fmt.Errorf("triad: %w", err)
	}
	want := map[string]bool{}
	for _, lv := range requested {
		want[lv] = true
	}
	var out []string
	for _, lv := range hw.CacheLevels() {
		if want[lv] {
			out = append(out, lv)
		}
	}
	return out, nil
}

// regionBounds returns one level's working-set filter for a system and
// socket count: keep is true for working sets resident in that level.
// The L3 and DRAM predicates are exactly the paper reproduction's
// original filters, so the default plan is unchanged; L1 and L2 classify
// against the aggregate private-cache capacities, matching simstream's
// plateau boundaries.
func regionBounds(sys hw.System, sockets int, level string) func(w float64) bool {
	l1 := float64(sys.L1Total(sockets))
	l2 := float64(sys.L2Total(sockets))
	l3 := float64(sys.L3Total(sockets))
	switch level {
	case "L1":
		return func(w float64) bool { return w <= l1 }
	case "L2":
		return func(w float64) bool { return w > l1 && w <= l2 }
	case "L3":
		return func(w float64) bool { return w > l2 && w <= 0.9*l3 }
	default: // DRAM
		return func(w float64) bool { return w > l2 && w >= 4*l3 }
	}
}

func planSimulated(sys hw.System, p workload.Params, levels []string) workload.Plan {
	var plan workload.Plan
	grid := units.TriadGridElements(units.WorkingSetGridDense(p.TriadLo, p.TriadHi, 4))
	for _, sockets := range sys.SocketConfigs() {
		aff := hw.AffinityClose
		if sockets > 1 {
			aff = hw.AffinitySpread
		}
		ids := map[string]string{}
		planned := map[string]bool{}
		for i := len(levels) - 1; i >= 0; i-- { // DRAM .. L1: chain order
			level := levels[i]
			keep := regionBounds(sys, sockets, level)
			eng := bench.NewSimEngine(sys, p.Seed)
			if level == "L1" || level == "L2" {
				// Sub-L3 working sets finish a pass in well under the
				// microsecond timer resolution; batch passes per measured
				// step so the sweep recovers the plateau, not the
				// quantisation floor.
				eng.Triad().MinMeasuredPass = simstream.DefaultMinMeasuredPass
			}
			var cases []bench.Case
			for _, n := range grid {
				if !keep(units.TriadBytes(n)) {
					continue
				}
				cases = append(cases, eng.TriadCase(n, aff, sockets))
			}
			name := fmt.Sprintf("TRIAD %s (%d sockets)", level, sockets)
			if len(cases) == 0 {
				plan.Warnf("%s: no working-set sizes inside %v..%v fall in the %s residency region — its bandwidth ceiling will be missing",
					name, p.TriadLo, p.TriadHi, level)
				continue
			}
			id := fmt.Sprintf("triad/%s/%ds", level, sockets)
			ids[level] = id
			planned[level] = true
			pt := workload.Point{Sockets: sockets, Region: level}
			if level == "DRAM" {
				pt.TheoreticalBandwidth = sys.TheoreticalBandwidth(sockets)
			}
			// Seed from the nearest slower planned level in this socket
			// configuration's chain.
			from := ""
			for j := i + 1; j < len(levels); j++ {
				if planned[levels[j]] {
					from = ids[levels[j]]
					break
				}
			}
			spec := sweep.Spec{Name: name, Clock: eng.Clock, Cases: cases}
			if from == "" {
				plan.Add(id, spec, pt)
			} else {
				plan.Chain(id, from, spec, pt)
			}
		}
	}
	// Restore presentation order: fastest level first within each socket
	// configuration, matching the decreasing-bandwidth legend order the
	// L3-before-DRAM default always had.
	orderPlan(&plan, levels)
	return plan
}

// orderPlan sorts the planned sweeps into (socket-config, level) order
// with levels in canonical decreasing-bandwidth order, without disturbing
// the plan-graph edges. Planning happened in chain order (DRAM first);
// presentation wants L1 first.
func orderPlan(plan *workload.Plan, levels []string) {
	rank := func(pl workload.Planned) int {
		for i, lv := range levels {
			if pl.Point.Region == lv {
				return i
			}
		}
		return len(levels)
	}
	sort.SliceStable(plan.Sweeps, func(i, j int) bool {
		a, b := plan.Sweeps[i], plan.Sweeps[j]
		if a.Point.Sockets != b.Point.Sockets {
			return a.Point.Sockets < b.Point.Sockets
		}
		return rank(a) < rank(b)
	})
}

func planNative(eng *bench.NativeEngine, p workload.Params) workload.Plan {
	var plan workload.Plan
	grid := units.TriadGridElements(units.WorkingSetGridDense(p.TriadLo, p.TriadHi, 2))
	dramID := ""
	for _, region := range []struct {
		name     string
		min, max units.ByteSize
	}{
		{"DRAM", p.AssumedLLC * 4, 1 << 62},
		{"cache", 0, p.AssumedLLC / 2},
	} {
		var cases []bench.Case
		for _, n := range grid {
			w := units.ByteSize(units.TriadBytes(n))
			if w < region.min || w > region.max {
				continue
			}
			cases = append(cases, eng.TriadCase(n))
		}
		name := "native TRIAD " + region.name
		if len(cases) == 0 {
			plan.Warnf("%s: no working-set sizes inside %v..%v fall in the %s residency region (assumed LLC %v) — its bandwidth ceiling will be missing",
				name, p.TriadLo, p.TriadHi, region.name, p.AssumedLLC)
			continue
		}
		id := "triad/" + region.name + "/native"
		spec := sweep.Spec{Name: name, Clock: eng.Clock, Cases: cases}
		pt := workload.Point{Sockets: 1, Region: region.name}
		if region.name == "DRAM" {
			dramID = id
			plan.Add(id, spec, pt)
		} else {
			// Cache bandwidth exceeds DRAM bandwidth, so the DRAM winner
			// is a safe pre-seed for the cache-region search.
			if dramID == "" {
				plan.Add(id, spec, pt)
			} else {
				plan.Chain(id, dramID, spec, pt)
			}
		}
	}
	// Presentation order: cache (faster) before DRAM, as before.
	if len(plan.Sweeps) == 2 {
		plan.Sweeps[0], plan.Sweeps[1] = plan.Sweeps[1], plan.Sweeps[0]
	}
	return plan
}
