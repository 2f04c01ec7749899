package triad

import (
	"fmt"
	"strings"
	"testing"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
	"rooftune/internal/sweep"
	"rooftune/internal/units"
	"rooftune/internal/workload"
)

func testParams() workload.Params {
	return workload.Params{
		Seed:       1021,
		TriadLo:    3 * units.KiB,
		TriadHi:    768 * units.MiB,
		AssumedLLC: 32 * units.MiB,
	}
}

func TestPlanSimulatedShape(t *testing.T) {
	sys, err := hw.Get("2650v4") // dual socket
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Workload{}.Plan(workload.Target{Sys: &sys}, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", plan.Warnings)
	}
	// One sweep per (socket config x {L3, DRAM}).
	want := 2 * len(sys.SocketConfigs())
	if len(plan.Sweeps) != want {
		t.Fatalf("sweeps = %d, want %d", len(plan.Sweeps), want)
	}
	regions := map[string]int{}
	for _, pl := range plan.Sweeps {
		if pl.Point.Compute {
			t.Fatalf("TRIAD planned a compute point: %+v", pl.Point)
		}
		regions[pl.Point.Region]++
		theo := pl.Point.TheoreticalBandwidth
		if (pl.Point.Region == "DRAM") != (theo != 0) {
			t.Fatalf("theoretical bandwidth on %s point: %v", pl.Point.Region, theo)
		}
		if len(pl.Spec.Cases) == 0 {
			t.Fatalf("sweep %s has no cases", pl.Spec.Name)
		}
	}
	if regions["L3"] != 2 || regions["DRAM"] != 2 {
		t.Fatalf("regions: %v", regions)
	}
}

func TestPlanEmptyRegionWarns(t *testing.T) {
	sys, err := hw.Get("Gold 6148")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	// Cap the working set below 4x L3 on every socket config: the DRAM
	// regions cannot be populated and must warn, not vanish.
	p.TriadHi = 32 * units.MiB
	plan, err := Workload{}.Plan(workload.Target{Sys: &sys}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Every socket config's DRAM region is empty; each must warn (the
	// dual-socket L3 region empties too — its L2 capacity alone exceeds
	// the cap — which is additional warning, not noise).
	dram := 0
	for _, w := range plan.Warnings {
		if !strings.Contains(w, "missing") {
			t.Fatalf("warning does not explain the missing ceiling: %q", w)
		}
		if strings.Contains(w, "DRAM") {
			dram++
		}
	}
	if dram != len(sys.SocketConfigs()) {
		t.Fatalf("DRAM warnings = %d in %v, want one per socket config", dram, plan.Warnings)
	}
	for _, pl := range plan.Sweeps {
		if pl.Point.Region == "DRAM" {
			t.Fatalf("empty DRAM region still planned: %+v", pl)
		}
	}
}

// TestPlanLevelsShape pins the per-level plan: one sweep per requested
// residency region per socket configuration, presented fastest-first,
// each chained (SeedFrom) to the nearest slower planned region of its
// socket configuration.
func TestPlanLevelsShape(t *testing.T) {
	sys, err := hw.Get("Gold 6148")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.TriadLevels = []string{"DRAM", "L1", "L3", "L2"} // any order in, canonical order out
	plan, err := Workload{}.Plan(workload.Target{Sys: &sys}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", plan.Warnings)
	}
	want := 4 * len(sys.SocketConfigs())
	if len(plan.Sweeps) != want {
		t.Fatalf("sweeps = %d, want %d", len(plan.Sweeps), want)
	}
	levels := []string{"L1", "L2", "L3", "DRAM"}
	for c, sockets := range sys.SocketConfigs() {
		for i, lv := range levels {
			pl := plan.Sweeps[c*4+i]
			if pl.Point.Region != lv || pl.Point.Sockets != sockets {
				t.Fatalf("sweep %d: region %s sockets %d, want %s/%d",
					c*4+i, pl.Point.Region, pl.Point.Sockets, lv, sockets)
			}
			wantID := fmt.Sprintf("triad/%s/%ds", lv, sockets)
			if pl.ID != wantID {
				t.Fatalf("sweep %d: ID %q, want %q", c*4+i, pl.ID, wantID)
			}
			// Chain: DRAM is the root; every faster level seeds from the
			// next slower one.
			wantFrom := ""
			if lv != "DRAM" {
				wantFrom = fmt.Sprintf("triad/%s/%ds", levels[i+1], sockets)
			}
			if pl.SeedFrom != wantFrom {
				t.Fatalf("sweep %s: SeedFrom %q, want %q", pl.ID, pl.SeedFrom, wantFrom)
			}
			if len(pl.Spec.Cases) == 0 {
				t.Fatalf("sweep %s has no cases", pl.ID)
			}
		}
	}
	if errs := sweep.PlanViolations(plan.Nodes()); len(errs) != 0 {
		t.Fatalf("per-level plan graph invalid: %v", errs)
	}
}

// TestPlanLevelsChainSkipsEmptyRegion: a region that filters empty drops
// out of its chain, and the next faster level seeds from the nearest
// planned slower one instead.
func TestPlanLevelsChainSkipsEmptyRegion(t *testing.T) {
	sys, err := hw.Get("Gold 6148")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.TriadLevels = []string{"L1", "L3", "DRAM"} // L2 not requested
	p.TriadHi = 32 * units.MiB                   // DRAM regions filter empty
	plan, err := Workload{}.Plan(workload.Target{Sys: &sys}, p)
	if err != nil {
		t.Fatal(err)
	}
	var l3From, l1From string
	for _, pl := range plan.Sweeps {
		if pl.Point.Sockets != 1 {
			continue
		}
		switch pl.Point.Region {
		case "L3":
			l3From = pl.SeedFrom
		case "L1":
			l1From = pl.SeedFrom
		}
	}
	if l3From != "" {
		t.Fatalf("L3 must be its chain's root once DRAM filtered empty, seeds from %q", l3From)
	}
	if l1From != "triad/L3/1s" {
		t.Fatalf("L1 must seed from L3 when L2 is not planned, seeds from %q", l1From)
	}
	if errs := sweep.PlanViolations(plan.Nodes()); len(errs) != 0 {
		t.Fatalf("plan graph invalid after dropped region: %v", errs)
	}
}

func TestPlanUnknownLevel(t *testing.T) {
	sys, err := hw.Get("Gold 6148")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.TriadLevels = []string{"L3", "L9"}
	if _, err := (Workload{}).Plan(workload.Target{Sys: &sys}, p); err == nil {
		t.Fatal("unknown residency level must error")
	}
	p.TriadLevels = []string{"L3", "L3"}
	if _, err := (Workload{}).Plan(workload.Target{Sys: &sys}, p); err == nil {
		t.Fatal("duplicate residency level must error")
	}
}

func TestPlanNativeShape(t *testing.T) {
	eng := bench.NewNativeEngine(1)
	p := testParams()
	p.TriadHi = 256 * units.MiB
	plan, err := Workload{}.Plan(workload.Target{Native: eng}, p)
	if err != nil {
		t.Fatal(err)
	}
	regions := map[string]string{}
	for _, pl := range plan.Sweeps {
		regions[pl.Point.Region] = pl.SeedFrom
		if pl.Spec.Clock != eng.Clock {
			t.Fatalf("native sweep %s must share the host clock", pl.Spec.Name)
		}
		if pl.Point.TheoreticalBandwidth != 0 {
			t.Fatalf("native point has a theoretical peak: %+v", pl.Point)
		}
	}
	if _, ok := regions["cache"]; !ok {
		t.Fatalf("native regions: %v", regions)
	}
	if _, ok := regions["DRAM"]; !ok {
		t.Fatalf("native regions: %v", regions)
	}
	// The cache sweep (faster) chains off the DRAM winner; DRAM is the root.
	if regions["DRAM"] != "" || regions["cache"] != "triad/DRAM/native" {
		t.Fatalf("native chain edges: %v", regions)
	}
	if errs := sweep.PlanViolations(plan.Nodes()); len(errs) != 0 {
		t.Fatalf("native plan graph invalid: %v", errs)
	}
}

func TestPlanInvertedBounds(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.TriadLo, p.TriadHi = p.TriadHi, p.TriadLo
	if _, err := (Workload{}).Plan(workload.Target{Sys: &sys}, p); err == nil {
		t.Fatal("inverted bounds must error")
	}
}

// TestTriadRegionClassification: on the 2650v4's single socket (L1 384
// KiB, L2 3 MiB, L3 30 MiB aggregate), each working set falls in exactly
// the residency region its size implies. 28 MiB sits in the transition
// zone around the L3 capacity edge and belongs to no region, neither L3
// nor DRAM, so no ceiling averages across the edge.
func TestTriadRegionClassification(t *testing.T) {
	sys := hw.IdunE52650v4
	for _, c := range []struct {
		bytes units.ByteSize
		want  string // "" for the transition zone
	}{
		{100 * units.KiB, "L1"},
		{units.MiB, "L2"},
		{12 * units.MiB, "L3"},
		{units.ByteSize(28 * float64(units.MiB)), ""},
		{256 * units.MiB, "DRAM"},
	} {
		w := units.TriadBytes(int(c.bytes / 24))
		var in []string
		for _, level := range hw.CacheLevels() {
			if regionBounds(sys, 1, level)(w) {
				in = append(in, level)
			}
		}
		got := strings.Join(in, ",")
		if got != c.want {
			t.Errorf("%v falls in regions %q, want %q", c.bytes, got, c.want)
		}
	}
}
