// Package servev1 is the roofserved daemon's versioned wire contract:
// the request, response and error shapes that cross the HTTP boundary,
// extracted from the serving tier so that many tuner frontends can
// compile against one stable schema.
//
// The package is deliberately stdlib-only and carries no behaviour
// beyond JSON round-tripping and request parsing. Everything in it is
// contract: the exported structs' field census and the State / ErrorCode
// enumerations are pinned to the committed golden api/serve_v1.txt by
// the wirecompat analyzer, so removing or retyping anything here fails
// CI the same way a rooftune/result/v1 schema break does. Additions are
// allowed but must be declared by regenerating the golden with
// rooflint -write-goldens.
//
// The campaign's Result payload is NOT defined here: a done JobStatus
// embeds the rooftune/result/v1 bytes verbatim (json.RawMessage), which
// is what keeps cached responses byte-identical.
package servev1

import (
	"encoding/json"
	"fmt"
	"io"
)

// Headers the daemon sets (responses) or reads (requests). They are
// wire contract: clients key cache assertions and fair queuing on them.
const (
	// CacheHeader reports whether a response was served from the
	// content-addressed cache ("hit") or freshly measured ("miss").
	CacheHeader = "X-Roofserve-Cache"
	// FingerprintHeader carries the campaign's content address on every
	// tuning response.
	FingerprintHeader = "X-Roofserve-Fingerprint"
	// JobHeader names the job that produced (or is producing) a response.
	JobHeader = "X-Roofserve-Job"
	// ClientHeader identifies the submitting client for per-client fair
	// queuing. Unset, the daemon falls back to the connection's remote
	// address.
	ClientHeader = "X-Roofserve-Client"
)

// DimsSpec is one DGEMM search-space point on the wire.
type DimsSpec struct {
	N int `json:"n"`
	M int `json:"m"`
	K int `json:"k"`
}

// BudgetSpec overrides parts of the default evaluation budget (Table I
// with the paper's best technique). Zero-valued fields keep defaults;
// the flag pointers distinguish "unset" from an explicit false.
type BudgetSpec struct {
	Invocations   int   `json:"invocations,omitempty"`
	MaxIterations int   `json:"maxIterations,omitempty"`
	MaxTimeMs     int64 `json:"maxTimeMs,omitempty"`
	Confidence    *bool `json:"confidence,omitempty"`
	InnerBound    *bool `json:"innerBound,omitempty"`
	OuterBound    *bool `json:"outerBound,omitempty"`
	MinCount      int   `json:"minCount,omitempty"`
}

// Campaign is the wire form of a tuning request: which simulated system
// to characterise, with which workloads, under which parameters. Every
// field except System is optional and defaults exactly as the
// corresponding rooftune option does, so an empty override set means
// "the library's default campaign for this system".
type Campaign struct {
	// System names the simulated target (hw.Get). Required: the daemon
	// serves simulated campaigns only.
	System string `json:"system"`
	// Workloads selects registered workloads, default ["dgemm","triad"].
	Workloads []string `json:"workloads,omitempty"`
	// Seed drives the simulated noise streams (default 1021, the paper
	// seed).
	Seed uint64 `json:"seed,omitempty"`
	// Space overrides the DGEMM search space.
	Space []DimsSpec `json:"space,omitempty"`
	// Budget overrides parts of the evaluation budget.
	Budget *BudgetSpec `json:"budget,omitempty"`
	// TriadLoBytes / TriadHiBytes bound the TRIAD working-set sweep.
	TriadLoBytes int64 `json:"triadLoBytes,omitempty"`
	TriadHiBytes int64 `json:"triadHiBytes,omitempty"`
	// TriadLevels selects cache-residency regions (subsets of
	// L1/L2/L3/DRAM).
	TriadLevels []string `json:"triadLevels,omitempty"`
	// Chain enables cross-sweep incumbent chaining (WithSweepChaining).
	Chain bool `json:"chain,omitempty"`
	// SpMV / stencil shapes.
	SpMVN         int `json:"spmvN,omitempty"`
	SpMVNNZPerRow int `json:"spmvNNZPerRow,omitempty"`
	StencilNX     int `json:"stencilNX,omitempty"`
	StencilNY     int `json:"stencilNY,omitempty"`
	// Serial forces serial sweep execution. Results are bit-identical
	// either way; it exists so SSE consumers get a deterministic event
	// order, not just a deterministic Result.
	Serial bool `json:"serial,omitempty"`
}

// ParseCampaign decodes a campaign, rejecting unknown fields — a typoed
// knob must fail the request, not silently run the default campaign and
// cache it under the wrong intent.
func ParseCampaign(r io.Reader) (Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("serve: parse campaign: %w", err)
	}
	// More reports false before a '}' or ']', so only a Token that hits
	// the end of input proves nothing follows the object.
	if _, err := dec.Token(); err != io.EOF {
		return c, fmt.Errorf("serve: parse campaign: trailing data after the campaign object")
	}
	return c, nil
}

// State is a job's lifecycle phase as serialized on the wire.
type State string

// Job lifecycle states. StateDone, StateFailed and StateShed are
// terminal. Removing a value is a breaking change (clients switch on
// them); the set is pinned in the api/serve_v1.txt enum section.
const (
	// StateQueued: admitted but waiting for a run slot.
	StateQueued State = "queued"
	// StateRunning: holding a slot, executing the campaign.
	StateRunning State = "running"
	// StateDone: completed; the status carries the Result bytes.
	StateDone State = "done"
	// StateFailed: errored or cancelled; the status carries the message.
	StateFailed State = "failed"
	// StateShed: refused by admission control before acquiring a slot;
	// resubmit after the advertised retry-after delay.
	StateShed State = "shed"
)

// Terminal reports whether the state is final — no further transitions,
// no further events.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateShed
}

// JobStatus is the wire form of a job handle: the response to
// POST /v1/jobs and GET /v1/jobs/{id}.
type JobStatus struct {
	// ID is the registry-assigned handle clients poll.
	ID string `json:"id"`
	// Fingerprint is the campaign's content address — the cache key its
	// result is stored under.
	Fingerprint string `json:"fingerprint"`
	// State is the lifecycle phase at snapshot time.
	State State `json:"state"`
	// Cached reports that the result bytes came from the
	// content-addressed cache rather than a fresh measurement.
	Cached bool `json:"cached,omitempty"`
	// Events counts the progress events recorded so far.
	Events int `json:"events"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// RetryAfterSeconds, on a shed job, is the daemon's resubmission
	// hint.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
	// Result holds the rooftune/result/v1 bytes verbatim once done.
	Result json.RawMessage `json:"result,omitempty"`
}

// ErrorCode classifies a daemon error for programmatic handling; the
// human-readable message may change freely, the code may not.
type ErrorCode string

// Error codes. The set is pinned in the api/serve_v1.txt enum section;
// removing one breaks client error dispatch.
const (
	// CodeBadCampaign: the campaign failed to parse or validate (400).
	CodeBadCampaign ErrorCode = "bad_campaign"
	// CodeNotFound: no job with the requested ID (404).
	CodeNotFound ErrorCode = "not_found"
	// CodeOverloaded: admission control shed the request; retry after
	// the advertised delay (429).
	CodeOverloaded ErrorCode = "overloaded"
	// CodeJobFailed: the campaign ran and failed (500).
	CodeJobFailed ErrorCode = "job_failed"
	// CodeClientClosed: the client disconnected before the answer (499).
	CodeClientClosed ErrorCode = "client_closed"
	// CodeInternal: anything else that is the daemon's fault (500).
	CodeInternal ErrorCode = "internal"
)

// Error is the structured error body. It implements error so servers
// and clients can pass it around as one.
type Error struct {
	// Code is the stable, machine-readable classification.
	Code ErrorCode `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// RetryAfterSeconds, when non-zero, tells the client when a retry
	// may succeed (mirrors the Retry-After header on 429 responses).
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// Error renders the code and message.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ErrorEnvelope is the top-level error response body: every non-2xx
// daemon response decodes into it.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}
