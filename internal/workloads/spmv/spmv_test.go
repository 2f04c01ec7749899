package spmv

import (
	"context"
	"strings"
	"testing"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
	"rooftune/internal/simspmv"
	"rooftune/internal/sweep"
	"rooftune/internal/units"
	"rooftune/internal/workload"
)

func testParams() workload.Params {
	return workload.Params{Seed: 1021, SpMVN: 1 << 16, SpMVNNZPerRow: 16}
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
	wantIntensity := simspmv.Intensity(1<<16, 16)
	for i, pl := range plan.Sweeps {
		sockets := sys.SocketConfigs()[i]
		pt := pl.Point
		if !pt.Compute || pt.Label != "SpMV" || pt.Sockets != sockets || pt.Region != "" {
			t.Fatalf("sweep %d point = %+v", i, pt)
		}
		if pt.Intensity != wantIntensity {
			t.Fatalf("sweep %d intensity = %v, want %v", i, pt.Intensity, wantIntensity)
		}
		if pt.Intensity <= units.TriadIntensity {
			t.Fatalf("SpMV intensity %v not above TRIAD's", pt.Intensity)
		}
		if len(pl.Spec.Cases) != len(Chunks(1<<16)) || pl.Spec.Clock == nil {
			t.Fatalf("sweep %d spec malformed: %d cases", i, len(pl.Spec.Cases))
		}
		if !strings.Contains(pl.Spec.Name, "SpMV") {
			t.Fatalf("sweep %d name %q", i, pl.Spec.Name)
		}
	}
	if plan.Sweeps[0].Spec.Clock == plan.Sweeps[1].Spec.Clock {
		t.Fatal("sweeps share a clock")
	}
}

func TestPlanNativeShape(t *testing.T) {
	eng := bench.NewNativeEngine(4)
	p := testParams()
	p.SpMVN, p.SpMVNNZPerRow = 4096, 8 // keep the shared matrix small
	plan, err := Workload{}.Plan(workload.Target{Native: eng}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Sweeps) != 1 {
		t.Fatalf("native sweeps = %d", len(plan.Sweeps))
	}
	pl := plan.Sweeps[0]
	if !pl.Point.Compute || pl.Point.Label != "SpMV" || pl.Point.Sockets != 1 {
		t.Fatalf("native point = %+v", pl.Point)
	}
	// chunk grid x thread grid {1, 2, 4}.
	if want := len(Chunks(4096)) * 3; len(pl.Spec.Cases) != want {
		t.Fatalf("native cases = %d, want %d", len(pl.Spec.Cases), want)
	}
	if pl.Spec.Clock != eng.Clock {
		t.Fatal("native sweep must share the host clock")
	}
}

func TestPlanRejectsBadShape(t *testing.T) {
	sys, err := hw.Get("2650v4")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []workload.Params{
		{Seed: 1, SpMVN: 0, SpMVNNZPerRow: 8},
		{Seed: 1, SpMVN: 1024, SpMVNNZPerRow: 0},
		{Seed: 1, SpMVN: 16, SpMVNNZPerRow: 32},
	} {
		if _, err := (Workload{}).Plan(workload.Target{Sys: &sys}, p); err == nil {
			t.Fatalf("params %+v must error", p)
		}
	}
}

// TestTunedWinnerMatchesModelArgmax runs the full simulated sweep twice:
// equal seeds must reproduce bit-identical winners, and the winner's
// steady-state value must sit within 1% of the calibrated surface's
// argmax — the tolerance the paper itself reports for its searches
// (Tables IV vs VIII-XI), since adjacent chunks near the peak differ by
// less than the measurement noise.
func TestTunedWinnerMatchesModelArgmax(t *testing.T) {
	sys, err := hw.Get("Gold 6148")
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

	model := simspmv.NewModel(sys)
	for i, out := range first {
		cfg, ok := out.Best.(bench.SpMVConfig)
		if !ok {
			t.Fatalf("%s: winner has config %T", out.Name, out.Best)
		}
		again, ok := second[i].Best.(bench.SpMVConfig)
		if !ok {
			t.Fatalf("%s: winner has config %T", second[i].Name, second[i].Best)
		}
		if cfg != again || out.BestValue() != second[i].BestValue() {
			t.Fatalf("sweep %s not reproducible: %+v/%g vs %+v/%g",
				out.Name, cfg, out.BestValue(), again, second[i].BestValue())
		}
		sockets := sys.SocketConfigs()[i]
		bestFlops := units.Flops(0)
		for _, c := range Chunks(p.SpMVN) {
			if f := model.SteadyFlops(p.SpMVN, p.SpMVNNZPerRow, c, sockets); f > bestFlops {
				bestFlops = f
			}
		}
		won := model.SteadyFlops(p.SpMVN, p.SpMVNNZPerRow, cfg.ChunkRows, sockets)
		if float64(won) < 0.99*float64(bestFlops) {
			t.Fatalf("sweep %s winner chunk %d at %v, >1%% below model argmax %v",
				out.Name, cfg.ChunkRows, won, bestFlops)
		}
		if cfg.N != p.SpMVN || cfg.NNZPerRow != p.SpMVNNZPerRow || cfg.Sockets != sockets {
			t.Fatalf("winner config %+v inconsistent with plan", cfg)
		}
	}
}
