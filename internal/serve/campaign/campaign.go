// Package campaign resolves the versioned rooftune/serve/v1 wire
// campaign into Session options. It is the one place a wire campaign
// becomes executable intent, shared by the serving tier (internal/serve
// resolves whole campaigns) and the distributed tier (internal/dist
// workers resolve the campaign fragment a node spec carries) — both
// must resolve identically, or a worker would measure a different
// session than the coordinator fingerprinted.
package campaign

import (
	"fmt"
	"io"
	"time"

	"rooftune"
	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/units"
	servev1 "rooftune/serve/v1"
)

// Parse decodes a campaign, rejecting unknown fields — a typoed knob
// must fail the request, not silently run the default campaign and
// cache it under the wrong intent.
func Parse(r io.Reader) (servev1.Campaign, error) {
	return servev1.ParseCampaign(r)
}

// Options resolves a wire campaign into session options.
func Options(c servev1.Campaign) ([]rooftune.Option, error) {
	if c.System == "" {
		return nil, fmt.Errorf("serve: campaign has no system: the daemon serves simulated campaigns only")
	}
	opts := []rooftune.Option{rooftune.WithSystem(c.System)}
	if len(c.Workloads) > 0 {
		opts = append(opts, rooftune.WithWorkloads(c.Workloads...))
	}
	if c.Seed != 0 {
		opts = append(opts, rooftune.WithSeed(c.Seed))
	}
	if len(c.Space) > 0 {
		dims := make([]core.Dims, len(c.Space))
		for i, d := range c.Space {
			dims[i] = core.Dims{N: d.N, M: d.M, K: d.K}
		}
		opts = append(opts, rooftune.WithSpace(dims))
	}
	if c.Budget != nil {
		opts = append(opts, rooftune.WithBudget(ResolveBudget(*c.Budget)))
	}
	if c.TriadLoBytes != 0 || c.TriadHiBytes != 0 {
		if c.TriadLoBytes < 0 || c.TriadHiBytes < 0 {
			return nil, fmt.Errorf("serve: negative TRIAD bounds %d..%d", c.TriadLoBytes, c.TriadHiBytes)
		}
		opts = append(opts, rooftune.WithTriadRange(units.ByteSize(c.TriadLoBytes), units.ByteSize(c.TriadHiBytes)))
	}
	if len(c.TriadLevels) > 0 {
		opts = append(opts, rooftune.WithTriadLevels(c.TriadLevels...))
	}
	if c.Chain {
		opts = append(opts, rooftune.WithSweepChaining(true))
	}
	if c.SpMVN != 0 || c.SpMVNNZPerRow != 0 {
		opts = append(opts, rooftune.WithSpMVShape(c.SpMVN, c.SpMVNNZPerRow))
	}
	if c.StencilNX != 0 || c.StencilNY != 0 {
		opts = append(opts, rooftune.WithStencilGrid(c.StencilNX, c.StencilNY))
	}
	if c.Serial {
		opts = append(opts, rooftune.WithSerial())
	}
	return opts, nil
}

// ResolveBudget applies the spec's overrides on top of the session
// default budget (Table I, Confidence+Inner+Outer).
func ResolveBudget(b servev1.BudgetSpec) bench.Budget {
	out := bench.DefaultBudget().WithFlags(true, true, true)
	if b.Invocations > 0 {
		out.Invocations = b.Invocations
	}
	if b.MaxIterations > 0 {
		out.MaxIterations = b.MaxIterations
	}
	if b.MaxTimeMs > 0 {
		out.MaxTime = time.Duration(b.MaxTimeMs) * time.Millisecond
	}
	if b.Confidence != nil {
		out.UseConfidence = *b.Confidence
	}
	if b.InnerBound != nil {
		out.UseInnerBound = *b.InnerBound
	}
	if b.OuterBound != nil {
		out.UseOuterBound = *b.OuterBound
	}
	if b.MinCount > 0 {
		out.MinCount = b.MinCount
	}
	return out
}
