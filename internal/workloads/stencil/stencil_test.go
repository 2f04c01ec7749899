package stencil

import (
	"context"
	"strings"
	"testing"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
	"rooftune/internal/simstencil"
	"rooftune/internal/sweep"
	"rooftune/internal/units"
	"rooftune/internal/workload"
)

func testParams() workload.Params {
	return workload.Params{Seed: 1021, StencilNX: 2048, StencilNY: 2048}
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
	if len(plan.Sweeps) != len(sys.SocketConfigs()) {
		t.Fatalf("sweeps = %d, want one per socket config %v", len(plan.Sweeps), sys.SocketConfigs())
	}
	wantIntensity := simstencil.Intensity(2048, 2048)
	for i, pl := range plan.Sweeps {
		sockets := sys.SocketConfigs()[i]
		pt := pl.Point
		if !pt.Compute || pt.Label != "stencil" || pt.Sockets != sockets || pt.Region != "" {
			t.Fatalf("sweep %d point = %+v", i, pt)
		}
		if pt.Intensity != wantIntensity || pt.Intensity <= units.TriadIntensity {
			t.Fatalf("sweep %d intensity = %v", i, pt.Intensity)
		}
		if len(pl.Spec.Cases) != len(Tiles(2048, 2048)) || pl.Spec.Clock == nil {
			t.Fatalf("sweep %d spec malformed: %d cases", i, len(pl.Spec.Cases))
		}
		if !strings.Contains(pl.Spec.Name, "stencil") {
			t.Fatalf("sweep %d name %q", i, pl.Spec.Name)
		}
	}
	if plan.Sweeps[0].Spec.Clock == plan.Sweeps[1].Spec.Clock {
		t.Fatal("sweeps share a clock")
	}
}

func TestPlanNativeShape(t *testing.T) {
	eng := bench.NewNativeEngine(2)
	p := testParams()
	p.StencilNX, p.StencilNY = 512, 512
	plan, err := Workload{}.Plan(workload.Target{Native: eng}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Sweeps) != 1 {
		t.Fatalf("native sweeps = %d", len(plan.Sweeps))
	}
	pl := plan.Sweeps[0]
	if !pl.Point.Compute || pl.Point.Label != "stencil" || pl.Point.Sockets != 1 {
		t.Fatalf("native point = %+v", pl.Point)
	}
	// tile grid x thread grid {1, 2}.
	if want := len(Tiles(512, 512)) * 2; len(pl.Spec.Cases) != want {
		t.Fatalf("native cases = %d, want %d", len(pl.Spec.Cases), want)
	}
	if pl.Spec.Clock != eng.Clock {
		t.Fatal("native sweep must share the host clock")
	}
}

func TestTilesClampToTinyGrid(t *testing.T) {
	tiles := Tiles(16, 16)
	if len(tiles) == 0 {
		t.Fatal("tiny grid planned no tiles")
	}
	for _, tile := range tiles {
		if tile[0] > 14 || tile[1] > 14 {
			t.Fatalf("tile %v exceeds the 14x14 interior", tile)
		}
	}
}

func TestPlanRejectsBadShape(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Workload{}).Plan(workload.Target{Sys: &sys}, workload.Params{StencilNX: 2, StencilNY: 100}); err == nil {
		t.Fatal("degenerate grid must error")
	}
}

// TestTunedWinnerMatchesModelArgmax mirrors the SpMV workload test: the
// simulated sweep is reproducible per seed and its winner sits within 1%
// of the calibrated surface's argmax (adjacent tiles near the peak can
// differ by less than the measurement noise).
func TestTunedWinnerMatchesModelArgmax(t *testing.T) {
	sys, err := hw.Get("Gold 6132")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	run := func() []sweep.Outcome {
		plan, err := Workload{}.Plan(workload.Target{Sys: &sys}, p)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]sweep.Node, len(plan.Sweeps))
		for i, pl := range plan.Sweeps {
			nodes[i] = sweep.Node{ID: pl.ID, Spec: pl.Spec}
		}
		runner := &sweep.Runner{
			Budget: bench.DefaultBudget().WithFlags(true, true, true),
		}
		outs, err := runner.RunPlan(context.Background(), nodes)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	first, second := run(), run()

	model := simstencil.NewModel(sys)
	for i, out := range first {
		cfg, ok := out.Best.(bench.StencilConfig)
		if !ok {
			t.Fatalf("%s: winner has config %T", out.Name, out.Best)
		}
		again, ok := second[i].Best.(bench.StencilConfig)
		if !ok {
			t.Fatalf("%s: winner has config %T", second[i].Name, second[i].Best)
		}
		if cfg != again || out.BestValue() != second[i].BestValue() {
			t.Fatalf("sweep %s not reproducible", out.Name)
		}
		sockets := sys.SocketConfigs()[i]
		bestFlops := units.Flops(0)
		for _, tile := range Tiles(p.StencilNX, p.StencilNY) {
			if f := model.SteadyFlops(p.StencilNX, p.StencilNY, tile[0], tile[1], sockets); f > bestFlops {
				bestFlops = f
			}
		}
		won := model.SteadyFlops(p.StencilNX, p.StencilNY, cfg.TileX, cfg.TileY, sockets)
		if float64(won) < 0.99*float64(bestFlops) {
			t.Fatalf("sweep %s winner tile %dx%d at %v, >1%% below model argmax %v",
				out.Name, cfg.TileX, cfg.TileY, won, bestFlops)
		}
	}
}
