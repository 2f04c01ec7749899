package rooftune

import (
	"context"
	"errors"
	"regexp"
	"slices"
	"sync"
	"testing"

	"rooftune/internal/bench"
	"rooftune/internal/core"
)

// TestSessionConcurrentRunRejected pins the one-Run-at-a-time contract: a
// Run starting while another is in flight fails immediately with
// ErrConcurrentRun, and once the first Run returns the Session is usable
// again. The in-flight Run is held open by a progress callback blocked on
// a channel — back-pressure keeps Run inside its event join until the
// test releases it.
func TestSessionConcurrentRunRejected(t *testing.T) {
	var (
		startedOnce sync.Once
		started     = make(chan struct{})
		release     = make(chan struct{})
	)
	opts := append(tinySessionOptions(),
		WithWorkloads("dgemm"),
		WithProgress(func(Event) {
			startedOnce.Do(func() { close(started) })
			<-release
		}),
	)
	sess, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	type runResult struct {
		res *Result
		err error
	}
	first := make(chan runResult, 1)
	go func() {
		res, err := sess.Run(context.Background())
		first <- runResult{res, err}
	}()
	<-started

	if _, err := sess.Run(context.Background()); !errors.Is(err, ErrConcurrentRun) {
		t.Fatalf("concurrent Run error = %v, want ErrConcurrentRun", err)
	}

	close(release)
	got := <-first
	if got.err != nil {
		t.Fatalf("first Run failed after concurrent rejection: %v", got.err)
	}
	if got.res == nil || len(got.res.Compute) == 0 {
		t.Fatalf("first Run produced no compute points: %+v", got.res)
	}

	// The guard must reset: sequential re-runs keep working.
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatalf("sequential re-Run after concurrent rejection: %v", err)
	}
}

// fingerprintFor builds a Session and returns its Fingerprint.
func fingerprintFor(t *testing.T, opts ...Option) string {
	t.Helper()
	sess, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sess.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestFingerprintDeterministic: two independently constructed identical
// sessions share a fingerprint, and the fingerprint is a well-formed hex
// SHA-256 — the property that makes it usable as a content address.
func TestFingerprintDeterministic(t *testing.T) {
	base := append(tinySessionOptions(), WithWorkloads("dgemm"))
	a := fingerprintFor(t, base...)
	b := fingerprintFor(t, base...)
	if a != b {
		t.Fatalf("identical sessions fingerprint differently: %s vs %s", a, b)
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(a) {
		t.Fatalf("fingerprint %q is not 64 lowercase hex chars", a)
	}
}

// TestFingerprintSensitivity: every knob that can move a simulated
// Result moves the fingerprint — seed, space, budget, chaining, workload
// set, and the target system itself.
func TestFingerprintSensitivity(t *testing.T) {
	// Clipped so each variant's append copies instead of overwriting the
	// previous variant's last option in a shared backing array.
	base := slices.Clip(append(tinySessionOptions(), WithWorkloads("dgemm")))
	ref := fingerprintFor(t, base...)

	smallBudget := bench.DefaultBudget().WithFlags(true, true, true)
	smallBudget.Invocations = 2
	variants := map[string][]Option{
		"seed":      append(base, WithSeed(7)),
		"space":     append(base, WithSpace([]core.Dims{{N: 512, M: 512, K: 128}})),
		"budget":    append(base, WithBudget(smallBudget)),
		"chain":     append(base, WithSweepChaining(true)),
		"workloads": append(base, WithWorkloads("dgemm", "triad")),
	}
	for name, opts := range variants {
		if got := fingerprintFor(t, opts...); got == ref {
			t.Errorf("changing %s left the fingerprint unchanged (%s)", name, ref)
		}
	}

	g6148 := fingerprintFor(t, WithSystem("Gold 6148"), WithWorkloads("dgemm"))
	g6132 := fingerprintFor(t, WithSystem("Gold 6132"), WithWorkloads("dgemm"))
	if g6148 == g6132 {
		t.Errorf("different systems share fingerprint %s", g6148)
	}
}

// TestFingerprintScheduleInvariant: WithSerial only chooses how much
// hardware runs the schedule, never what the schedule computes, so it
// leaves the fingerprint alone and a serial campaign hits the cache
// entries a concurrent one wrote.
func TestFingerprintScheduleInvariant(t *testing.T) {
	base := slices.Clip(append(tinySessionOptions(), WithWorkloads("dgemm")))
	ref := fingerprintFor(t, base...)
	if got := fingerprintFor(t, append(base, WithSerial())...); got != ref {
		t.Errorf("WithSerial changed the fingerprint: %s -> %s", ref, got)
	}
}
