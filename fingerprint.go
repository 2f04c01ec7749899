package rooftune

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"rooftune/internal/bench"
	"rooftune/internal/sweep"
)

// fingerprintSchema versions the canonical rendering Fingerprint hashes.
// Bump it whenever the rendering below changes meaning: a bumped schema
// re-keys every content-addressed cache built on fingerprints, which is
// exactly what must happen when the identity contract moves.
const fingerprintSchema = "rooftune-fingerprint-v3"

// Fingerprint returns the session's content address: the hex SHA-256 of
// a canonical rendering of everything that determines its Result —
// engine and system identity, seed, the full evaluation budget, the
// chaining mode and the resolved plan graph down to every planned case's
// typed configuration (bench.AppendConfigCanonical).
// Two sessions with equal fingerprints produce byte-identical Results on
// simulated targets, which is what lets a serving tier memoize outcomes:
// a cache keyed on the fingerprint returns a stored Result only to
// requests that would have re-measured exactly the same thing.
//
// Knobs that do not move the Result are excluded on purpose: WithSerial
// changes how many sweeps run at once, never one byte of the Result
// (asserted by the determinism suites), and WithProgress only observes
// the run, so a serial campaign still hits the cache entries a
// concurrent one wrote.
//
// On a simulated target the fingerprint is derived from the plan New
// built (or from a fresh plan once a run has consumed that one) and
// memoized, so repeated calls are free; it is safe to call while a Run
// is in flight. Native sessions plan afresh on every call. They
// fingerprint too (the engine identity and thread count distinguish
// them from every simulated build), but two hosts sharing a fingerprint
// are not comparable hardware: memoize native results only within one
// machine.
func (s *Session) Fingerprint() (string, error) {
	target, res := s.target()
	if s.cfg.native {
		p, err := s.plan(target)
		if err != nil {
			return "", err
		}
		return s.renderFingerprint(res, p.nodes)
	}
	// A simulated session's plan is a pure function of its settings, so
	// the fingerprint is computed once: from New's plan while no run has
	// consumed it, from a fresh plan after. Holding mu across the
	// rendering keeps a concurrent run from taking the plan mid-read.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fingerprint != "" {
		return s.fingerprint, nil
	}
	p := s.pending
	if p == nil {
		var err error
		if p, err = s.plan(target); err != nil {
			return "", err
		}
	}
	fp, err := s.renderFingerprint(res, p.nodes)
	if err != nil {
		return "", err
	}
	s.fingerprint = fp
	return fp, nil
}

// renderFingerprint hashes the canonical rendering of the session
// settings and the planned nodes. Lines are appended into one reused
// buffer that is streamed into the hash whenever it fills.
func (s *Session) renderFingerprint(res *Result, nodes []sweep.Node) (string, error) {
	const flushAt = 4 << 10
	h := sha256.New()
	buf := make([]byte, 0, flushAt+256)
	line := func() {
		buf = append(buf, '\n')
		if len(buf) >= flushAt {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	buf = append(buf, fingerprintSchema...)
	line()
	buf = append(append(buf, "engine="...), res.Engine...)
	line()
	buf = append(append(buf, "system="...), res.SystemName...)
	line()
	buf = strconv.AppendUint(append(buf, "seed="...), s.cfg.seed, 10)
	line()
	buf = strconv.AppendInt(append(buf, "threads="...), int64(s.cfg.threads), 10)
	line()
	buf = append(append(buf, "budget="...), s.cfg.budget.Canonical()...)
	line()
	buf = strconv.AppendBool(append(buf, "chain="...), s.cfg.chain)
	line()
	for _, n := range nodes {
		seedFrom := n.SeedFrom
		if !s.cfg.chain {
			// Without chaining the edges are stripped before execution,
			// so they are not part of what the run measures.
			seedFrom = ""
		}
		buf = append(append(buf, "node="...), n.ID...)
		buf = append(append(buf, " seedFrom="...), seedFrom...)
		buf = append(append(buf, " sweep="...), n.Spec.Name...)
		line()
		for _, c := range n.Spec.Cases {
			cfg := c.Config()
			if cfg == nil {
				return "", fmt.Errorf("rooftune: Fingerprint: sweep %s case %s carries no typed config", n.Spec.Name, c.Key())
			}
			var err error
			if buf, err = bench.AppendConfigCanonical(append(buf, "case="...), cfg); err != nil {
				return "", fmt.Errorf("rooftune: Fingerprint: sweep %s: %w", n.Spec.Name, err)
			}
			buf = append(append(buf, " metric="...), c.Metric().Unit()...)
			line()
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)), nil
}
