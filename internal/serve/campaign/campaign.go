// Package campaign resolves the versioned rooftune/serve/v1 wire
// campaign into Session options. It is the one place a wire campaign
// becomes executable intent, shared by the serving tier (internal/serve
// resolves whole campaigns) and the distributed tier (internal/dist
// workers resolve the campaign fragment a node spec carries) — both
// must resolve identically, or a worker would measure a different
// session than the coordinator fingerprinted.
//
// Both daemons resolve through a Resolver, which remembers the
// fingerprint it computed for each campaign's exact wire bytes. A
// byte-identical repeat is keyed from that memo without building a
// session (no parse, no plan); a session is built only for bytes seen
// for the first time, or when a run actually needs one. The memo is
// bounded by the daemon's -cache-entries and lives in memory only.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"rooftune"
	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/serve/cache"
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

// Resolved is a wire campaign built into the session that runs it.
type Resolved struct {
	Campaign servev1.Campaign
	Session  *rooftune.Session
}

// Build resolves a campaign's wire bytes into its session: Parse,
// Options, then rooftune.New, which plans and validates the campaign.
// extra joins the campaign's own options; it must not change the
// fingerprint (a daemon binds its job's progress hook here).
func Build(data []byte, extra ...rooftune.Option) (*Resolved, error) {
	camp, err := Parse(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	opts, err := Options(camp)
	if err != nil {
		return nil, err
	}
	sess, err := rooftune.New(append(opts, extra...)...)
	if err != nil {
		return nil, fmt.Errorf("serve: invalid campaign: %w", err)
	}
	return &Resolved{Campaign: camp, Session: sess}, nil
}

// Resolver memoizes campaign fingerprints by the SHA-256 of the exact
// wire bytes each was computed from. A fingerprint is valid only for
// the binary that computed it, so the memo is never persisted, and it
// holds no Result: the daemon's result cache stays the one
// content-addressed store. It is safe for concurrent use.
type Resolver struct {
	fps *cache.Cache // hex SHA-256 of the wire bytes -> fingerprint
}

// NewResolver builds a resolver that remembers up to entries campaigns
// (<=0: the cache default, 256).
func NewResolver(entries int) *Resolver {
	// Without a persistence directory cache.New cannot fail.
	fps, _ := cache.New(cache.Config{MaxEntries: entries})
	return &Resolver{fps: fps}
}

// Resolve returns the fingerprint of the campaign whose wire bytes are
// data. Bytes this resolver has resolved before are answered from the
// memo with a nil *Resolved: nothing is parsed or planned. Otherwise the
// campaign is built (Build, with extra) and fingerprinted, and the built
// session comes back beside its fingerprint, so a caller that runs it
// builds nothing again. Bytes that do not resolve are never remembered.
func (r *Resolver) Resolve(data []byte, extra ...rooftune.Option) (string, *Resolved, error) {
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])
	if fp, ok := r.fps.Get(digest); ok {
		return string(fp), nil, nil
	}
	res, err := Build(data, extra...)
	if err != nil {
		return "", nil, err
	}
	fp, err := res.Session.Fingerprint()
	if err != nil {
		return "", nil, fmt.Errorf("serve: fingerprint: %w", err)
	}
	// The digest is a hex SHA-256, the store's key shape, and a
	// fingerprint is never empty, so Put cannot fail.
	_, _ = r.fps.Put(digest, []byte(fp), 0)
	return fp, res, nil
}
