package rooftune

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"rooftune/internal/bench"
)

// fingerprintSchema versions the canonical rendering Fingerprint hashes.
// Bump it whenever the rendering below changes meaning: a bumped schema
// re-keys every content-addressed cache built on fingerprints, which is
// exactly what must happen when the identity contract moves.
const fingerprintSchema = "rooftune-fingerprint-v2"

// Fingerprint returns the session's content address: the hex SHA-256 of
// a canonical rendering of everything that determines its Result —
// engine and system identity, seed, the full evaluation budget, the
// chaining mode and the resolved plan graph down to every planned case's
// typed configuration (bench.ConfigCanonical).
// Two sessions with equal fingerprints produce byte-identical Results on
// simulated targets, which is what lets a serving tier memoize outcomes:
// a cache keyed on the fingerprint returns a stored Result only to
// requests that would have re-measured exactly the same thing.
//
// Execution-schedule knobs that do not move the Result are excluded on
// purpose: WithSerial and WithHostParallelism change which hardware runs
// the schedule, never one byte of the Result (asserted by the
// determinism suites), so a loaded daemon sharing its host budget across
// sessions still hits the cache entries an idle one wrote.
//
// Native sessions fingerprint too (the engine identity and thread count
// distinguish them from every simulated build), but two hosts sharing a
// fingerprint are not comparable hardware: memoize native results only
// within one machine.
func (s *Session) Fingerprint() (string, error) {
	target, res := s.target()
	nodes, _, err := s.plan(target, &Result{}, func(Event) {})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(fingerprintSchema)
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "engine=%s\n", res.Engine)
	fmt.Fprintf(&sb, "system=%s\n", res.SystemName)
	fmt.Fprintf(&sb, "seed=%d\n", s.cfg.seed)
	fmt.Fprintf(&sb, "threads=%d\n", s.cfg.threads)
	fmt.Fprintf(&sb, "budget=%s\n", s.cfg.budget.Canonical())
	fmt.Fprintf(&sb, "chain=%t\n", s.cfg.chain)
	for _, n := range nodes {
		seedFrom := n.SeedFrom
		if !s.cfg.chain {
			// Without chaining the edges are stripped before execution,
			// so they are not part of what the run measures.
			seedFrom = ""
		}
		fmt.Fprintf(&sb, "node=%s seedFrom=%s sweep=%s\n", n.ID, seedFrom, n.Spec.Name)
		for _, c := range n.Spec.Cases {
			cfg := c.Config()
			if cfg == nil {
				return "", fmt.Errorf("rooftune: Fingerprint: sweep %s case %s carries no typed config", n.Spec.Name, c.Key())
			}
			canon, err := bench.ConfigCanonical(cfg)
			if err != nil {
				return "", fmt.Errorf("rooftune: Fingerprint: sweep %s: %w", n.Spec.Name, err)
			}
			fmt.Fprintf(&sb, "case=%s metric=%s\n", canon, c.Metric().Unit())
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:]), nil
}
