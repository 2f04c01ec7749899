package rooftune

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"rooftune/internal/bench"
	"rooftune/internal/hw"
	"rooftune/internal/units"
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

// TestPlannedCaseFormats holds every simulated case of an all-workload
// campaign (all five systems, TRIAD L1 to DRAM) to the fmt formats its
// Key and Describe were first written with: the cases now append their
// strings, and every Result, outcome and fingerprint carries them.
func TestPlannedCaseFormats(t *testing.T) {
	for _, name := range hw.Known() {
		sess, err := New(WithSystem(name), WithWorkloads("dgemm", "triad", "spmv", "stencil"),
			WithTriadLevels("L1", "L2", "L3", "DRAM"))
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, n := range sess.pending.nodes {
			for _, c := range n.Spec.Cases {
				var key, describe string
				switch cfg := c.Config().(type) {
				case bench.DGEMMConfig:
					key = fmt.Sprintf("dgemm/%d/%dx%dx%d", cfg.Sockets, cfg.N, cfg.M, cfg.K)
					describe = fmt.Sprintf("n=%d m=%d k=%d sockets=%d", cfg.N, cfg.M, cfg.K, cfg.Sockets)
				case bench.TriadConfig:
					key = fmt.Sprintf("triad/%d/%s/%d", cfg.Sockets, cfg.Affinity, cfg.Elements)
					describe = fmt.Sprintf("N=%d (W=%v) affinity=%s sockets=%d",
						cfg.Elements, units.ByteSize(units.TriadBytes(cfg.Elements)), cfg.Affinity, cfg.Sockets)
				case bench.SpMVConfig:
					key = fmt.Sprintf("spmv/%d/%dx%d/%d", cfg.Sockets, cfg.N, cfg.NNZPerRow, cfg.ChunkRows)
					describe = fmt.Sprintf("n=%d nnz/row=%d chunk=%d sockets=%d", cfg.N, cfg.NNZPerRow, cfg.ChunkRows, cfg.Sockets)
				case bench.StencilConfig:
					key = fmt.Sprintf("stencil/%d/%dx%d/%dx%d", cfg.Sockets, cfg.NX, cfg.NY, cfg.TileX, cfg.TileY)
					describe = fmt.Sprintf("grid=%dx%d tile=%dx%d sockets=%d", cfg.NX, cfg.NY, cfg.TileX, cfg.TileY, cfg.Sockets)
				default:
					t.Fatalf("%s: unexpected config %T", name, cfg)
				}
				kinds[fmt.Sprintf("%T", c.Config())]++
				if got := c.Key(); got != key {
					t.Fatalf("%s: Key() = %q, want %q", name, got, key)
				}
				if got := c.Describe(); got != describe {
					t.Fatalf("%s: Describe() = %q, want %q", name, got, describe)
				}
			}
		}
		if len(kinds) != 4 {
			t.Fatalf("%s: planned case kinds %v, want all four", name, kinds)
		}
	}
}
