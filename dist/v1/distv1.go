// Package distv1 is the rooftune distributed-sweep tier's versioned
// wire contract: the shapes that cross the HTTP boundary between the
// coordinator (roofserved -workers) and the node workers (roofworkerd).
//
// The unit of distribution is one plan-graph node — a campaign fragment:
// the full campaign (the same rooftune/serve/v1 schema the daemon
// accepts) plus the ID of the single sweep node to execute and the seed
// its incumbent starts from. A worker re-plans the campaign locally, so
// the node spec stays tiny and the worker's execution is exactly the
// Session machinery a local RunPlan would use; the Fingerprint field
// content-addresses the fragment (campaign fingerprint x node ID x
// seed), which is what makes dispatch idempotent — a requeued or
// replayed node hits the worker's completion cache instead of
// re-measuring, and duplicate completions dedupe on the coordinator.
//
// Like rooftune/serve/v1, this package is deliberately stdlib-only and
// carries no behaviour beyond JSON round-tripping, parsing and the
// fingerprint derivation both sides must agree on. Everything in it is
// contract: the struct field census and the ErrorCode enumeration are
// pinned to the committed golden api/dist_v1.txt by the wirecompat
// analyzer, so removing or retyping anything here fails CI. Additions
// must be declared by regenerating the golden with rooflint
// -write-goldens.
package distv1

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Schema identifies this contract version on every request and
// response body, so a coordinator never silently drives a worker
// speaking a different dialect.
const Schema = "rooftune/dist/v1"

// Worker endpoints. The coordinator POSTs node specs to PathRun and
// polls PathHealth to enroll workers and detect death.
const (
	// PathRun executes one plan-graph node: POST a NodeSpec, receive a
	// NodeOutcome (or an ErrorEnvelope).
	PathRun = "/dist/v1/run"
	// PathHealth is the heartbeat: GET returns a Heartbeat snapshot.
	PathHealth = "/dist/v1/healthz"
)

// Headers the worker sets on run responses.
const (
	// WorkerHeader names the worker that produced a response.
	WorkerHeader = "X-Roofdist-Worker"
	// NodeHeader carries the node fingerprint of a run response.
	NodeHeader = "X-Roofdist-Node"
	// DedupeHeader reports whether a run response was answered from the
	// worker's completion cache ("hit") or freshly measured ("miss").
	DedupeHeader = "X-Roofdist-Dedupe"
)

// NodeSpec is the unit of dispatch: one plan-graph node of a campaign.
// The worker re-plans the campaign with the same Session machinery the
// coordinator used, runs exactly the named node, and returns its
// NodeOutcome. SeedValue pre-seeds the node's incumbent bound with its
// dependency's measured winner — the coordinator dispatches a dependent
// only after that winner arrived, which is what keeps the merged Result
// bit-identical to a local RunPlan.
type NodeSpec struct {
	// Schema must be the Schema constant; workers reject other dialects.
	Schema string `json:"schema"`
	// Campaign is the full campaign the node belongs to, in the
	// rooftune/serve/v1 wire schema (rendered as its JSON object).
	Campaign json.RawMessage `json:"campaign"`
	// NodeID names the plan-graph node to execute (e.g. "triad/L3/2s").
	NodeID string `json:"nodeId"`
	// SeedFrom names the node whose winner produced SeedValue (empty:
	// the node starts unseeded). Provenance only; the worker does not
	// resolve it.
	SeedFrom string `json:"seedFrom,omitempty"`
	// SeedValue pre-seeds the node's incumbent bound, in metric base
	// units (0: none).
	SeedValue float64 `json:"seedValue,omitempty"`
	// Fingerprint is the fragment's content address (NodeFingerprint
	// over the campaign fingerprint, NodeID and SeedValue). The worker
	// recomputes and rejects a mismatch, so a spec can never be cached
	// under an identity it does not have.
	Fingerprint string `json:"fingerprint"`
}

// NodeOutcome is a completed node: the sweep's winner plus the search
// cost and provenance the coordinator needs to merge it bit-identically
// into a local RunPlan's Result. It deliberately carries exactly what
// Result assembly and downstream seeding consume — the winning
// configuration (a rooftune/result/v1 bench.Config envelope), its
// description and mean, the salvage flag, and the virtual-clock search
// cost — not the full per-case outcome list.
type NodeOutcome struct {
	// Schema is the Schema constant.
	Schema string `json:"schema"`
	// NodeID echoes the executed node.
	NodeID string `json:"nodeId"`
	// Fingerprint echoes the fragment's content address.
	Fingerprint string `json:"fingerprint"`
	// Worker names the worker that measured the node.
	Worker string `json:"worker,omitempty"`
	// Winner is the winning configuration as a rooftune/result/v1
	// config envelope (bench.MarshalConfig).
	Winner json.RawMessage `json:"winner"`
	// Desc is the winner's human-readable description.
	Desc string `json:"desc"`
	// Value is the winning mean in metric base units.
	Value float64 `json:"value"`
	// BestPruned reports that every configuration was outer-pruned and
	// Value is the best truncated partial mean, not a measured winner —
	// the coordinator must not seed dependents from it.
	BestPruned bool `json:"bestPruned,omitempty"`
	// ElapsedNs is the node's search time on the engine's virtual
	// clock, in nanoseconds — summed into Result.SearchTime exactly as
	// a local sweep's Elapsed would be.
	ElapsedNs int64 `json:"elapsedNs"`
	// PrunedCount is how many configurations stop condition 4 abandoned.
	PrunedCount int `json:"prunedCount"`
	// TotalSamples counts all measured iterations in the node's search.
	TotalSamples int `json:"totalSamples"`
}

// Heartbeat is the worker's health snapshot, returned by PathHealth.
type Heartbeat struct {
	// Schema is the Schema constant.
	Schema string `json:"schema"`
	// Worker is the worker's self-assigned name.
	Worker string `json:"worker"`
	// Running counts nodes currently executing.
	Running int `json:"running"`
	// Capacity is the worker's host-parallelism budget.
	Capacity int `json:"capacity"`
	// NodesRun counts node executions completed since the worker
	// started (completion-cache hits excluded).
	NodesRun uint64 `json:"nodesRun"`
}

// ErrorCode classifies a worker error for programmatic handling; the
// human-readable message may change freely, the code may not.
type ErrorCode string

// Error codes. The set is pinned in the api/dist_v1.txt enum section.
const (
	// CodeBadRequest: the request body failed to parse (400).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeBadNode: the spec's campaign, node ID or fingerprint does not
	// resolve on this worker — wrong dialect, unknown node, or a
	// fingerprint mismatch (400). Not retryable on another worker if
	// the spec itself is wrong.
	CodeBadNode ErrorCode = "bad_node"
	// CodeNodeFailed: the node ran and failed (500). The coordinator
	// requeues elsewhere or falls back to local execution.
	CodeNodeFailed ErrorCode = "node_failed"
)

// Error is the structured error body workers send on non-2xx responses.
type Error struct {
	// Code is the stable, machine-readable classification.
	Code ErrorCode `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// Error renders the code and message.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ErrorEnvelope is the top-level error response body.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// ParseNodeSpec decodes a node spec, rejecting unknown fields and other
// schema dialects — a node run under a misparsed spec would be cached
// under the wrong identity.
func ParseNodeSpec(r io.Reader) (NodeSpec, error) {
	var s NodeSpec
	if err := parse(r, &s); err != nil {
		return s, fmt.Errorf("dist: parse node spec: %w", err)
	}
	if s.Schema != Schema {
		return s, fmt.Errorf("dist: parse node spec: schema %q, want %q", s.Schema, Schema)
	}
	return s, nil
}

func parse(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// More reports false before a '}' or ']', so only a Token that hits
	// the end of input proves nothing follows the object.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the object")
	}
	return nil
}

// fingerprintSchema versions the canonical rendering NodeFingerprint
// hashes. Bump it whenever the rendering changes meaning: a bump
// re-keys every worker completion cache, which is exactly what must
// happen when the fragment identity contract moves.
const fingerprintSchema = "rooftune-dist-fingerprint-v1"

// NodeFingerprint derives a node fragment's content address: the hex
// SHA-256 over the campaign's session fingerprint, the plan-graph node
// ID, and the exact bits of the seed value. Both sides compute it — the
// coordinator to address dispatch, the worker to verify the spec and
// key its completion cache — so the derivation is contract, versioned
// by its embedded schema string.
func NodeFingerprint(campaignFingerprint, nodeID string, seedValue float64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\ncampaign %s\nnode %s\nseed %016x\n",
		fingerprintSchema, campaignFingerprint, nodeID, math.Float64bits(seedValue))
	return hex.EncodeToString(h.Sum(nil))
}
