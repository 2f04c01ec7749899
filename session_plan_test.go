package rooftune

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"rooftune/internal/workload"
)

// planCounter counts Plan calls per seed, so tests that use distinct
// seeds can share the one process-global registration.
type planCounter struct {
	mu    sync.Mutex
	calls map[uint64]int
}

func (c *planCounter) Name() string { return "plan-counting" }

// Plan delegates to the built-in DGEMM workload and adds one
// empty-region warning, so tests can watch warnings survive the plan
// handoff.
func (c *planCounter) Plan(t Target, p Params) (Plan, error) {
	c.mu.Lock()
	c.calls[p.Seed]++
	c.mu.Unlock()
	dgemm, err := workload.Get("dgemm")
	if err != nil {
		return Plan{}, err
	}
	plan, err := dgemm.Plan(t, p)
	plan.Warnings = append(plan.Warnings, "counted region: empty")
	return plan, err
}

// reset zeroes the count for seed and returns a reader of it.
func (c *planCounter) reset(seed uint64) func() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.calls, seed)
	return func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.calls[seed]
	}
}

var (
	planCount     = &planCounter{calls: map[uint64]int{}}
	planCountOnce sync.Once
)

// countedSession builds a session on the plan-counting workload under
// seed and returns it with a reader of its Plan calls since New began.
func countedSession(t *testing.T, seed uint64, extra ...Option) (*Session, func() int) {
	t.Helper()
	var regErr error
	planCountOnce.Do(func() { regErr = RegisterWorkload(planCount) })
	if regErr != nil {
		t.Fatal(regErr)
	}
	plans := planCount.reset(seed)
	opts := append(tinySessionOptions(), WithWorkloads("plan-counting"), WithSeed(seed))
	sess, err := New(append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sess, plans
}

func runBytes(t *testing.T, sess *Session) []byte {
	t.Helper()
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSessionPlansOnce pins the plan handoff: New's validation plan
// feeds both Fingerprint and the first Run, so New + Fingerprint + Run
// plans once. A second Run plans afresh and returns the same bytes, and
// the empty-region warning and event arrive on every run.
func TestSessionPlansOnce(t *testing.T) {
	var (
		mu    sync.Mutex
		empty int
	)
	sess, plans := countedSession(t, 11, WithProgress(func(ev Event) {
		if ev.Kind == EventRegionEmpty && ev.Workload == "plan-counting" {
			mu.Lock()
			empty++
			mu.Unlock()
		}
	}))
	fp, err := sess.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	first := runBytes(t, sess)
	if got := plans(); got != 1 {
		t.Fatalf("New + Fingerprint + Run planned %d times, want 1", got)
	}
	second := runBytes(t, sess)
	if got := plans(); got != 2 {
		t.Fatalf("a second Run planned %d times in total, want 2", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-run bytes differ:\nfirst:  %s\nsecond: %s", first, second)
	}
	if !bytes.Contains(first, []byte("workload plan-counting: counted region: empty")) {
		t.Fatalf("first run lost the attributed plan warning: %s", first)
	}
	mu.Lock()
	defer mu.Unlock()
	if empty != 2 {
		t.Fatalf("EventRegionEmpty delivered %d times over two runs, want 2", empty)
	}
	again, err := sess.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if again != fp {
		t.Fatalf("Fingerprint moved across runs: %s -> %s", fp, again)
	}
	if got := plans(); got != 2 {
		t.Fatalf("a memoized Fingerprint planned: %d plans, want 2", got)
	}
}

// TestFingerprintAfterRunReplans: once a run consumed New's plan, the
// first Fingerprint renders a fresh plan, and the value equals the one
// rendered from New's plan on an identical session.
func TestFingerprintAfterRunReplans(t *testing.T) {
	sess, plans := countedSession(t, 12)
	runBytes(t, sess)
	fp, err := sess.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got := plans(); got != 2 {
		t.Fatalf("Run then Fingerprint planned %d times, want 2", got)
	}
	fresh, _ := countedSession(t, 12)
	want, err := fresh.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != want {
		t.Fatalf("fingerprint after Run %s, from New's plan %s", fp, want)
	}
}

// TestFingerprintConcurrentWithRun races Fingerprint against the Run
// that consumes New's plan: every call must return the reference value
// and the run's bytes must match an undisturbed run's (run it under
// -race).
func TestFingerprintConcurrentWithRun(t *testing.T) {
	ref, _ := countedSession(t, 13)
	want, err := ref.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := runBytes(t, ref)
	for i := 0; i < 4; i++ {
		sess, _ := countedSession(t, 13)
		var wg sync.WaitGroup
		fps := make([]string, 4)
		errs := make([]error, len(fps))
		for j := range fps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fps[j], errs[j] = sess.Fingerprint()
			}()
		}
		got := runBytes(t, sess)
		wg.Wait()
		for j := range fps {
			if errs[j] != nil {
				t.Fatal(errs[j])
			}
			if fps[j] != want {
				t.Fatalf("concurrent Fingerprint = %s, want %s", fps[j], want)
			}
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("Run beside Fingerprint diverged:\ngot:  %s\nwant: %s", got, wantBytes)
		}
	}
}
