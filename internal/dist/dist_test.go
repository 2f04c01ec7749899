package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rooftune"
	distv1 "rooftune/dist/v1"
	"rooftune/internal/serve/campaign"
	"rooftune/internal/serve/metrics"
	servev1 "rooftune/serve/v1"
)

// chainedCampaign is the acceptance campaign: a chained TRIAD
// residency-level sweep, so the plan graph has seed edges (L2 seeds L3
// seeds DRAM) and the distributed schedule must honor the dependency
// order and seed values exactly to stay byte-identical.
const chainedCampaign = `{
	"system": "Gold 6148",
	"workloads": ["triad"],
	"triadLevels": ["L2", "L3", "DRAM"],
	"chain": true,
	"triadLoBytes": 16384,
	"triadHiBytes": 268435456
}`

// resolve builds the chained campaign's session the way the daemon
// does, returning the wire form beside it.
func resolve() (servev1.Campaign, *rooftune.Session, error) {
	camp, err := campaign.Parse(strings.NewReader(chainedCampaign))
	if err != nil {
		return camp, nil, err
	}
	opts, err := campaign.Options(camp)
	if err != nil {
		return camp, nil, err
	}
	sess, err := rooftune.New(opts...)
	return camp, sess, err
}

// distRun runs the chained campaign through the coordinator exactly as
// the daemon does on a cache miss: one session, its fingerprint as the
// campaign address, every node offered to the coordinator's executor.
func distRun(ctx context.Context, c *Coordinator) (*rooftune.Result, error) {
	camp, sess, err := resolve()
	if err != nil {
		return nil, err
	}
	fp, err := sess.Fingerprint()
	if err != nil {
		return nil, err
	}
	return sess.RunDist(ctx, c.Exec(camp, fp))
}

// requireLocal fails the test unless res is byte-identical to the
// chained campaign run in-process — same Summary, same everything.
func requireLocal(t *testing.T, what string, res *rooftune.Result) {
	t.Helper()
	_, sess, err := resolve()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary() != local.Summary() {
		t.Fatalf("%s: summary differs from local:\ndist:\n%s\nlocal:\n%s", what, res.Summary(), local.Summary())
	}
	if !reflect.DeepEqual(*res, *local) {
		t.Fatalf("%s: Result differs from local run:\ndist  %+v\nlocal %+v", what, *res, *local)
	}
}

// testWorker is one in-process roofworkerd: the real Worker behind an
// httptest server, optionally wrapped in a failure-injection shim.
type testWorker struct {
	w  *Worker
	ts *httptest.Server
}

// startWorker launches a worker; shim, when non-nil, wraps the handler
// (failure injection: kill, delay).
func startWorker(t *testing.T, name string, shim func(http.Handler) http.Handler) *testWorker {
	t.Helper()
	w := NewWorker(context.Background(), WorkerConfig{Name: name, Parallelism: 2})
	h := http.Handler(w.Handler())
	if shim != nil {
		h = shim(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &testWorker{w: w, ts: ts}
}

// newTestCoordinator builds a coordinator over the given workers with a
// fresh probe view established, short heartbeats and the given lease.
func newTestCoordinator(t *testing.T, lease time.Duration, workers ...*testWorker) *Coordinator {
	t.Helper()
	urls := make([]string, len(workers))
	for i, tw := range workers {
		urls[i] = tw.ts.URL
	}
	c := NewCoordinator(Config{
		Workers:   urls,
		Heartbeat: 100 * time.Millisecond,
		Lease:     lease,
		Metrics:   metrics.NewSet(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	c.Start(ctx)
	return c
}

// TestDistByteIdenticalToLocal is the tentpole acceptance: a chained
// multi-node campaign through the coordinator and two real HTTP workers
// produces a Result byte-identical to an in-process Run — same Summary,
// same everything.
func TestDistByteIdenticalToLocal(t *testing.T) {
	w1 := startWorker(t, "w1", nil)
	w2 := startWorker(t, "w2", nil)
	c := newTestCoordinator(t, time.Minute, w1, w2)

	res, err := distRun(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "distributed run", res)
	if st := c.Stats(); st.Dispatched == 0 {
		t.Fatal("nothing dispatched — the run did not go through the workers")
	} else if st.LocalFallback != 0 {
		t.Fatalf("%d local fallbacks with a healthy fleet", st.LocalFallback)
	}
	if w1.w.nodesRun.Load()+w2.w.nodesRun.Load() == 0 {
		t.Fatal("no worker measured a node")
	}
}

// faultShim injects one fault into whichever worker receives the
// fleet's first run request — the victim — so the fault lands however
// the nodes are placed. With kill set the victim is killed at that
// request: it and every later request to it are dropped with no
// coherent response. With delay set each of the victim's run requests
// is held for delay before delegating — a healthy-but-slow worker that
// outlives its leases.
type faultShim struct {
	kill   bool
	delay  time.Duration
	victim atomic.Value // string: the faulted worker's name
}

// wrap returns the shim for the worker named name (startWorker's shim
// argument).
func (f *faultShim) wrap(name string) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			run := r.URL.Path == distv1.PathRun
			if run {
				f.victim.CompareAndSwap(nil, name)
			}
			if f.victim.Load() == name {
				if f.kill {
					panic(http.ErrAbortHandler)
				}
				if run {
					time.Sleep(f.delay)
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestWorkerKillMidSweepRequeues: a worker dies on its first dispatched
// node (connection aborted, no response). The coordinator marks it
// dead, requeues onto the surviving worker, and the final Result is
// byte-identical to an uninterrupted local run.
func TestWorkerKillMidSweepRequeues(t *testing.T) {
	shim := &faultShim{kill: true}
	w1 := startWorker(t, "w1", shim.wrap("w1"))
	w2 := startWorker(t, "w2", shim.wrap("w2"))
	c := newTestCoordinator(t, time.Minute, w1, w2)

	res, err := distRun(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "after worker kill", res)
	st := c.Stats()
	if st.Requeued == 0 {
		t.Fatalf("worker died but nothing was requeued: %+v", st)
	}
	if st.WorkerErrors == 0 {
		t.Fatalf("worker died but no worker error recorded: %+v", st)
	}
	killed := w1
	if shim.victim.Load() == "w2" {
		killed = w2
	}
	if n := killed.w.nodesRun.Load(); n != 0 {
		t.Fatalf("the killed worker %s measured %d nodes", killed.w.name, n)
	}
}

// TestLeaseExpiryDuplicateCompletionDedupe: a slow worker's lease
// expires, the node is requeued to a fast worker (which wins), and the
// slow worker's late completion is deduped — dropped without touching
// the Result, which stays byte-identical to local.
func TestLeaseExpiryDuplicateCompletionDedupe(t *testing.T) {
	shim := &faultShim{delay: 400 * time.Millisecond}
	w1 := startWorker(t, "w1", shim.wrap("w1"))
	w2 := startWorker(t, "w2", shim.wrap("w2"))
	c := newTestCoordinator(t, 50*time.Millisecond, w1, w2)

	res, err := distRun(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "with duplicate completions", res)
	st := c.Stats()
	if st.LeaseExpired == 0 {
		t.Fatalf("no lease expired against a %v-delayed worker: %+v", shim.delay, st)
	}
	if st.Requeued == 0 {
		t.Fatalf("lease expired but nothing requeued: %+v", st)
	}
	// Give the slow attempts time to land so the dedupe path executes.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Deduped == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.Stats().Deduped == 0 {
		t.Fatalf("slow worker's late completions were never deduped: %+v", c.Stats())
	}
}

// TestCoordinatorRestartInFlightLeases: a coordinator dies (context
// cancelled) while nodes are in flight; a fresh coordinator replays the
// sweep against the same fleet. Placement is by node fingerprint, so
// every coordinator sends a node to the same worker: in-flight nodes
// are joined and completed ones answered from that worker's completion
// cache — the replay is correct and byte-identical to local.
func TestCoordinatorRestartInFlightLeases(t *testing.T) {
	w1 := startWorker(t, "w1", nil)
	w2 := startWorker(t, "w2", nil)

	// First coordinator: cancelled almost immediately, mid-dispatch.
	c1 := newTestCoordinator(t, time.Minute, w1, w2)
	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = distRun(ctx1, c1)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel1()
	<-done

	// Second coordinator: same fleet, fresh state. Every node the first
	// coordinator managed to start is either still running (joined) or
	// cached (replayed) on the workers.
	c2 := newTestCoordinator(t, time.Minute, w1, w2)
	res, err := distRun(context.Background(), c2)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "after coordinator restart", res)
	// Idempotency: replaying the whole campaign a second time measures
	// nothing — every node answers from the completion caches.
	before := w1.w.nodesRun.Load() + w2.w.nodesRun.Load()
	c3 := newTestCoordinator(t, time.Minute, w1, w2)
	res2, err := distRun(context.Background(), c3)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "replay", res2)
	if after := w1.w.nodesRun.Load() + w2.w.nodesRun.Load(); after != before {
		t.Fatalf("replay re-measured nodes: %d fresh runs", after-before)
	}
}

// TestLocalFallbackNoWorkers: with the whole fleet dead the coordinator
// degrades to local execution — the sweep completes in-process and the
// Result is still byte-identical to a plain Run.
func TestLocalFallbackNoWorkers(t *testing.T) {
	// A worker that is down from the start: reserve a URL, then close.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c := NewCoordinator(Config{
		Workers:   []string{dead.URL},
		Heartbeat: 50 * time.Millisecond,
		Lease:     time.Minute,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)

	res, err := distRun(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "local fallback", res)
	if st := c.Stats(); st.LocalFallback == 0 {
		t.Fatalf("dead fleet but no local fallback recorded: %+v", st)
	}
	if live, _ := c.Workers(); live != 0 {
		t.Fatalf("dead fleet reports %d live workers", live)
	}
}

// TestBoundPushUnknownFingerprint: pushing a bound for a node the
// worker is not running acks Applied=false and is harmless — the
// protocol treats missed pushes as lost pruning opportunity only.
func TestBoundPushUnknownFingerprint(t *testing.T) {
	w := startWorker(t, "w", nil)
	body := strings.NewReader(`{"schema":"` + distv1.Schema + `","fingerprint":"nope","value":42}`)
	resp, err := http.Post(w.ts.URL+distv1.PathBound, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bound push status %d", resp.StatusCode)
	}
	var ack distv1.BoundAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Applied {
		t.Fatal("bound for unknown fingerprint reported Applied=true")
	}
}

// TestFingerprintMismatchRejected: a spec whose fingerprint does not
// match what the worker resolves is refused — running it would poison
// the sweep with a wrong-but-plausible outcome.
func TestFingerprintMismatchRejected(t *testing.T) {
	w := startWorker(t, "w", nil)
	spec := `{"schema":"` + distv1.Schema + `","campaign":` + chainedCampaign + `,"nodeId":"triad/L2","fingerprint":"bogus"}`
	resp, err := http.Post(w.ts.URL+distv1.PathRun, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched fingerprint: status %d, want 400", resp.StatusCode)
	}
}
