package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rooftune"
	"rooftune/internal/bench"
	"rooftune/internal/core"
)

// The native kernel campaign: a small fixed DGEMM space, a small fixed
// budget, and SpMV and stencil shapes whose kernels take about a
// millisecond per execution on one core. TRIAD is left out: its DRAM
// region needs arrays of several times the last-level cache, and its
// cache region times sub-microsecond kernels.
var (
	nativeWorkloads = []string{"dgemm", "spmv", "stencil"}
	nativeSpace     = []core.Dims{{N: 128, M: 256, K: 128}, {N: 256, M: 128, K: 128}, {N: 192, M: 192, K: 128}}
	nativeSpMVN     = 1 << 15
	nativeSpMVNNZ   = 16
	nativeStencilNX = 512
	nativeStencilNY = 512
)

// nativeBudget is the fixed small budget: Confidence + Inner + Outer with
// three invocations of at most eight iterations.
func nativeBudget() bench.Budget {
	b := bench.DefaultBudget().WithFlags(true, true, true)
	b.Invocations = 3
	b.MaxIterations = 8
	b.MaxTime = 100 * time.Millisecond
	return b
}

// nativeGFLOPSCap is the sanity cap on any native ceiling: no pure-Go
// kernel reaches 100 GFLOP/s per thread.
const nativeGFLOPSCap = 100

func nativeOptions(seed uint64, threads int) []rooftune.Option {
	return []rooftune.Option{
		rooftune.WithNative(),
		rooftune.WithSeed(seed),
		rooftune.WithThreads(threads),
		rooftune.WithWorkloads(nativeWorkloads...),
		rooftune.WithSpace(nativeSpace),
		rooftune.WithBudget(nativeBudget()),
		rooftune.WithSpMVShape(nativeSpMVN, nativeSpMVNNZ),
		rooftune.WithStencilGrid(nativeStencilNX, nativeStencilNY),
	}
}

// kernelSeconds is how long a traced sim-campaigns run measures the
// native kernels after its campaign loop.
const kernelSeconds = 5 * time.Second

// measureKernels measures the kernel layer: native campaigns — DGEMM,
// SpMV and stencil on the host with GOMAXPROCS kernel threads — repeated
// for kernelSeconds, alternately untraced and traced. Only the per-layer
// kernel metrics come from them. Wall-clock kernel speed on a shared host
// drifts by more than any bound a gated end-to-end metric could carry
// (a native workload's medians moved 34% between two sets of runs), so
// the kernels are measured here, in the traced run, and not gated.
func measureKernels(ctx context.Context, o opts, r *report) error {
	threads := runtime.GOMAXPROCS(0)
	// The SpMV matrix pattern is the one input drawn from the seed.
	options := nativeOptions(1+newRand(o.seed, 3).Uint64N(1<<31), threads)
	capFlops := float64(nativeGFLOPSCap*threads) * 1e9
	ko := o
	ko.seconds = kernelSeconds
	lp := loopCampaigns(ctx, ko, r, loopSpec{
		n:         1,
		kernel:    true,
		workloads: nativeWorkloads,
		campaign: func(int) ([]rooftune.Option, bench.Budget) {
			return options, nativeBudget()
		},
		check: func(body []byte) (*rooftune.Result, error) { return checkNativeResult(body, capFlops) },
	})
	t, ok := lp.totals(r)
	if !ok {
		return fmt.Errorf("no traced native campaign completed")
	}
	gflops := func(family string) float64 {
		f := t.families[family]
		if f == nil || f.stepBusy <= 0 {
			return 0
		}
		return f.flops / f.stepBusy.Seconds() / 1e9
	}
	c := t.perPass
	r.set("kernel.steps", c.EngineSteps)
	r.set("kernel.busy_s", t.split.engine.Seconds()/t.ops)
	r.set("kernel.setup_s", t.split.setupBusy.Seconds()/t.ops)
	r.set("kernel.dgemm_step_gflops", gflops("DGEMM"))
	r.set("kernel.spmv_gflops", gflops("SpMV"))
	r.set("kernel.stencil_gflops", gflops("stencil"))
	r.set("kernel.flops_computed", c.Flops)
	r.set("kernel.bytes_computed", c.Bytes)
	r.set("kernel.flops_per_byte", c.Flops/c.Bytes)
	return lp.log.write(o.out+"/traces", fmt.Sprintf("%s-seed%d-kernels.jsonl", r.workload, o.seed))
}

// checkNativeResult checks a native Result: it decodes as result/v1 and
// holds the DGEMM, SpMV and stencil compute points, each finite, positive
// and below the sanity cap.
func checkNativeResult(body []byte, capFlops float64) (*rooftune.Result, error) {
	res, err := decodeResult(body)
	if err != nil {
		return nil, err
	}
	have := map[string]bool{}
	for _, c := range res.Compute {
		v := float64(c.Flops)
		if !(v > 0) || !finite(v) || v > capFlops {
			return nil, fmt.Errorf("native %s ceiling %v FLOP/s outside (0, %v]", c.Label, v, capFlops)
		}
		have[c.Label] = true
	}
	for _, want := range []string{"DGEMM", "SpMV", "stencil"} {
		if !have[want] {
			return nil, fmt.Errorf("native result lacks the %s point", want)
		}
	}
	return res, nil
}
