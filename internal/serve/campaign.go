// Package serve is the rooftune daemon: a long-lived HTTP service that
// accepts JSON campaign specs, resolves them through the same Session
// machinery the library exposes, and memoizes every completed Result in
// a content-addressed cache keyed by the session fingerprint.
//
// The contract that makes the cache sound is determinism: served
// campaigns target simulated systems only, and every sweep evaluates its
// cases serially, so a campaign's Result is a pure function of its
// fingerprint and a cache hit is byte-for-byte the response a fresh run
// would have produced — with zero kernel executions. Native targets are
// rejected: wall-clock measurements are not content-addressable (the
// same campaign legitimately yields different numbers run to run).
//
// Concurrent identical submissions collapse onto one run (singleflight
// via the jobs registry), concurrent distinct campaigns divide the host
// under a shared parallelism budget instead of each assuming the whole
// machine, and an admission controller bounds how many runs execute and
// wait at once — excess load is shed deterministically with 429 +
// Retry-After rather than queued without bound.
//
// With workers configured (Config.Workers), the daemon additionally
// runs as the distributed tier's coordinator: cache and admission stay
// in front, but each admitted campaign's plan-graph nodes fan out to
// roofworkerd processes over the rooftune/dist/v1 contract, with
// lease-based requeue from dead or slow workers and graceful local
// fallback — see internal/dist.
//
// The wire contract itself (Campaign, JobStatus, the error envelope)
// lives in the versioned rooftune/serve/v1 package, and resolving a
// wire campaign into session options lives in internal/serve/campaign
// (shared with the distributed workers); this package keeps aliases for
// compatibility and owns the daemon behaviour.
package serve

import (
	"io"

	"rooftune"
	"rooftune/internal/serve/campaign"
	servev1 "rooftune/serve/v1"
)

// The wire types are defined in rooftune/serve/v1 (the versioned
// contract pinned by api/serve_v1.txt); these aliases keep the serving
// tier's internal code and tests on their historical names.
type (
	// Campaign is the wire form of a tuning request.
	Campaign = servev1.Campaign
	// DimsSpec is one DGEMM search-space point on the wire.
	DimsSpec = servev1.DimsSpec
	// BudgetSpec overrides parts of the default evaluation budget.
	BudgetSpec = servev1.BudgetSpec
)

// ParseCampaign decodes a campaign, rejecting unknown fields — a typoed
// knob must fail the request, not silently run the default campaign and
// cache it under the wrong intent.
func ParseCampaign(r io.Reader) (Campaign, error) {
	return campaign.Parse(r)
}

// CampaignOptions resolves a wire campaign into session options — see
// internal/serve/campaign, which the distributed workers share so a
// node spec resolves identically on every process.
func CampaignOptions(c Campaign) ([]rooftune.Option, error) {
	return campaign.Options(c)
}
