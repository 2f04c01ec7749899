package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"rooftune"
	"rooftune/internal/bench"
	"rooftune/internal/serve/campaign"
	servev1 "rooftune/serve/v1"
)

// systems are the five simulated systems of the paper; every campaign
// list is stratified over them so that a list's totals do not depend on
// which systems a seed happened to draw.
var systems = []string{"2650v4", "2695v4", "Gold 6132", "Gold 6148", "Silver 4110"}

// simWorkloads and triadLevels shape every simulated campaign: all four
// workloads, with the TRIAD cache levels chained L1 to DRAM.
var (
	simWorkloads = []string{"dgemm", "triad", "spmv", "stencil"}
	triadLevels  = []string{"L1", "L2", "L3", "DRAM"}
)

// newRand derives the workload's random stream from its seed.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x70657266_62656e63^stream))
}

// campaignSeeds draws n distinct non-zero campaign seeds (0 would mean
// the library's default seed).
func campaignSeeds(rng *rand.Rand, n int, taken map[uint64]bool) []uint64 {
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := 1 + rng.Uint64N(1<<31)
		if !taken[s] {
			taken[s] = true
			out = append(out, s)
		}
	}
	return out
}

// prunedCampaign is a campaign under the library's default budget,
// Confidence + Inner + Outer: the budget served campaigns use.
func prunedCampaign(system string, seed uint64) servev1.Campaign {
	return servev1.Campaign{
		System:      system,
		Workloads:   simWorkloads,
		Seed:        seed,
		TriadLevels: triadLevels,
		Chain:       true,
	}
}

// fixedCampaign is the same campaign under the paper's fixed-sample
// "Default" budget: every stop condition off.
func fixedCampaign(system string, seed uint64) servev1.Campaign {
	c := prunedCampaign(system, seed)
	off := false
	c.Budget = &servev1.BudgetSpec{Confidence: &off, InnerBound: &off, OuterBound: &off}
	return c
}

// campaignBudget resolves the budget a wire campaign runs under.
func campaignBudget(c servev1.Campaign) bench.Budget {
	if c.Budget == nil {
		return campaign.ResolveBudget(servev1.BudgetSpec{})
	}
	return campaign.ResolveBudget(*c.Budget)
}

// campaignOutput is one executed in-process campaign.
type campaignOutput struct {
	body    []byte
	latency time.Duration
}

// runInProcess executes rooftune.New, Fingerprint, Run and json.Marshal
// on the resolved options: what a served miss does, without the daemon.
func runInProcess(ctx context.Context, options []rooftune.Option) (campaignOutput, error) {
	start := time.Now()
	sess, err := rooftune.New(options...)
	if err != nil {
		return campaignOutput{}, err
	}
	if _, err := sess.Fingerprint(); err != nil {
		return campaignOutput{}, err
	}
	res, err := sess.Run(ctx)
	if err != nil {
		return campaignOutput{}, err
	}
	body, err := json.Marshal(res)
	if err != nil {
		return campaignOutput{}, err
	}
	return campaignOutput{body: body, latency: time.Since(start)}, nil
}

// runTraced executes the same four calls with spans around each and
// the traced wrapper workloads planned in place of the built-ins. The
// caller supplies the options without workloads; names are the built-in
// workload names to wrap.
func runTraced(ctx context.Context, options []rooftune.Option, names []string, budget bench.Budget, log *spanLog, opID int, kernel bool) (campaignOutput, campaignSplit, error) {
	tr := newCampaignTrace(budget)
	activeTrace.Store(tr)
	defer activeTrace.Store(nil)
	options = append(options[:len(options):len(options)],
		rooftune.WithWorkloads(tracedNames(names)...),
		rooftune.WithProgress(tr.event))

	var ss sessionSpans
	ss.start = time.Now()
	sess, err := rooftune.New(options...)
	ss.newEnd = time.Now()
	if err != nil {
		return campaignOutput{}, campaignSplit{}, err
	}
	if _, err := sess.Fingerprint(); err != nil {
		return campaignOutput{}, campaignSplit{}, err
	}
	ss.fpEnd = time.Now()
	res, err := sess.Run(ctx)
	ss.runEnd = time.Now()
	if err != nil {
		return campaignOutput{}, campaignSplit{}, err
	}
	body, err := json.Marshal(res)
	ss.end = time.Now()
	if err != nil {
		return campaignOutput{}, campaignSplit{}, err
	}
	split, err := tr.finish(log, opID, ss, kernel)
	if err != nil {
		return campaignOutput{}, campaignSplit{}, fmt.Errorf("trace: %w", err)
	}
	return campaignOutput{body: body, latency: ss.end.Sub(ss.start)}, split, nil
}

// checkSimResult checks a simulated campaign's Result bytes: they decode
// as result/v1, and every planned ceiling — DGEMM, SpMV and stencil
// compute points and the four TRIAD levels, for each socket count the
// system tunes — is present with a finite positive value.
func checkSimResult(body []byte) (*rooftune.Result, error) {
	res, err := decodeResult(body)
	if err != nil {
		return nil, err
	}
	if len(res.Warnings) > 0 {
		return nil, fmt.Errorf("result warnings: %v", res.Warnings)
	}
	have := map[string]bool{}
	sockets := map[int]bool{}
	for _, c := range res.Compute {
		if !(float64(c.Flops) > 0) || !finite(float64(c.Flops)) {
			return nil, fmt.Errorf("compute point %s/%ds has value %v", c.Label, c.Sockets, float64(c.Flops))
		}
		have[fmt.Sprintf("%s/%d", c.Label, c.Sockets)] = true
		sockets[c.Sockets] = true
	}
	for _, m := range res.Memory {
		if !(float64(m.Bandwidth) > 0) || !finite(float64(m.Bandwidth)) {
			return nil, fmt.Errorf("memory point %s/%ds has value %v", m.Region, m.Sockets, float64(m.Bandwidth))
		}
		have[fmt.Sprintf("%s/%d", m.Region, m.Sockets)] = true
		sockets[m.Sockets] = true
	}
	if len(sockets) == 0 {
		return nil, fmt.Errorf("result has no ceilings")
	}
	for s := range sockets {
		for _, want := range []string{"DGEMM", "SpMV", "stencil", "L1", "L2", "L3", "DRAM"} {
			if !have[fmt.Sprintf("%s/%d", want, s)] {
				return nil, fmt.Errorf("result lacks the %s ceiling for %d socket(s)", want, s)
			}
		}
	}
	if res.SearchTime <= 0 {
		return nil, fmt.Errorf("result has search time %v", res.SearchTime)
	}
	return res, nil
}

// decodeResult decodes result/v1 bytes.
func decodeResult(body []byte) (*rooftune.Result, error) {
	var res rooftune.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decode result/v1: %w", err)
	}
	return &res, nil
}

// dgemmCeiling returns the highest DGEMM compute ceiling of a Result.
func dgemmCeiling(res *rooftune.Result) float64 {
	best := 0.0
	for _, c := range res.Compute {
		if (c.Label == "DGEMM" || c.Label == "") && float64(c.Flops) > best {
			best = float64(c.Flops)
		}
	}
	return best
}

// ceilingErr is the largest relative error of a's ceilings against b's,
// matched by position (both Results come from the same plan), and the
// ceiling it was found on.
func ceilingErr(a, b *rooftune.Result) (float64, string, error) {
	if len(a.Compute) != len(b.Compute) || len(a.Memory) != len(b.Memory) {
		return 0, "", fmt.Errorf("twin results have different ceiling counts")
	}
	worst, where := 0.0, ""
	for i, c := range a.Compute {
		if e := relErr(float64(c.Flops), float64(b.Compute[i].Flops)); e > worst {
			worst, where = e, fmt.Sprintf("%s/%ds", c.Label, c.Sockets)
		}
	}
	for i, m := range a.Memory {
		if e := relErr(float64(m.Bandwidth), float64(b.Memory[i].Bandwidth)); e > worst {
			worst, where = e, fmt.Sprintf("TRIAD %s/%ds", m.Region, m.Sockets)
		}
	}
	return worst, where, nil
}
