package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rooftune"
	distv1 "rooftune/dist/v1"
	"rooftune/internal/bench"
	"rooftune/internal/serve/campaign"
	"rooftune/internal/serve/metrics"
	"rooftune/internal/sweep"
	"rooftune/internal/vclock"
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

// resolve builds a campaign's session the way the daemon does,
// returning the wire form beside it.
func resolve(body string) (servev1.Campaign, *rooftune.Session, error) {
	built, err := campaign.Build([]byte(body))
	if err != nil {
		return servev1.Campaign{}, nil, err
	}
	return built.Campaign, built.Session, nil
}

// distRun runs a campaign through the coordinator exactly as the daemon
// does on a cache miss: one session, its fingerprint as the campaign
// address, every node offered to the coordinator's executor.
func distRun(ctx context.Context, c *Coordinator, body string) (*rooftune.Result, error) {
	camp, sess, err := resolve(body)
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
// campaign run in-process — same Summary, same everything.
func requireLocal(t *testing.T, what, body string, res *rooftune.Result) {
	t.Helper()
	_, sess, err := resolve(body)
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

	res, err := distRun(context.Background(), c, chainedCampaign)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "distributed run", chainedCampaign, res)
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

	res, err := distRun(context.Background(), c, chainedCampaign)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "after worker kill", chainedCampaign, res)
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

	res, err := distRun(context.Background(), c, chainedCampaign)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "with duplicate completions", chainedCampaign, res)
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

// The gate workload holds one plan-graph node inside worker execution
// until the test opens it: every kernel execution of its first node
// blocks on gate and signals gateStarted on entry, so the test knows the
// node is running on a worker rather than merely dispatched. Its second
// node is seeded by the first, so no other node can be in flight while
// the first is held.
var (
	gateMu      sync.Mutex
	gate        chan struct{}
	gateStarted chan struct{}
)

// armGate installs a closed-until-released gate and returns its entry
// signal and the (idempotent) release.
func armGate(t *testing.T) (started <-chan struct{}, release func()) {
	t.Helper()
	g, sig := make(chan struct{}), make(chan struct{}, 1)
	gateMu.Lock()
	gate, gateStarted = g, sig
	gateMu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(g) }) }
	t.Cleanup(release)
	return sig, release
}

func init() {
	if err := rooftune.RegisterWorkload(gateWorkload{}); err != nil {
		panic(err)
	}
}

type gateWorkload struct{}

func (gateWorkload) Name() string { return "distgate" }

func (gateWorkload) Plan(t rooftune.Target, p rooftune.Params) (rooftune.Plan, error) {
	var plan rooftune.Plan
	if t.IsNative() {
		return plan, fmt.Errorf("distgate: simulated only")
	}
	held, seeded := vclock.NewVirtual(), vclock.NewVirtual()
	plan.Add(
		"distgate/1s",
		sweep.Spec{Name: "distgate held", Clock: held, Cases: []bench.Case{&gateCase{clock: held, held: true, work: 1}}},
		rooftune.Point{Sockets: 1, Region: "GATE"},
	)
	plan.Chain(
		"distgate/2s", "distgate/1s",
		sweep.Spec{Name: "distgate seeded", Clock: seeded, Cases: []bench.Case{&gateCase{clock: seeded, work: 2}}},
		rooftune.Point{Sockets: 2, Region: "GATE"},
	)
	return plan, nil
}

type gateCase struct {
	clock *vclock.Virtual
	held  bool
	work  float64
}

func (c *gateCase) Key() string          { return fmt.Sprintf("distgate/%t", c.held) }
func (c *gateCase) Describe() string     { return "distgate" }
func (c *gateCase) Metric() bench.Metric { return bench.MetricBandwidth }
func (c *gateCase) Config() bench.Config {
	return bench.TriadConfig{Elements: 1 << 12, Sockets: 1}
}

func (c *gateCase) NewInvocation(inv int) (bench.Instance, error) {
	return &gateInstance{c: c}, nil
}

type gateInstance struct{ c *gateCase }

func (i *gateInstance) Step() time.Duration {
	if i.c.held {
		gateMu.Lock()
		g, sig := gate, gateStarted
		gateMu.Unlock()
		select {
		case sig <- struct{}{}:
		default:
		}
		<-g
	}
	d := time.Millisecond
	i.c.clock.Advance(d)
	return d
}

func (i *gateInstance) Work() float64 { return i.c.work }
func (i *gateInstance) Warmup()       { i.Step() }
func (i *gateInstance) Close()        {}

const gatedCampaign = `{"system": "Gold 6148", "workloads": ["distgate"], "chain": true}`

// TestCoordinatorRestartInFlightLeases: a coordinator dies (context
// cancelled) while a node is running on a worker; a fresh coordinator
// replays the campaign against the same fleet. Placement is by node
// fingerprint, so every coordinator sends a node to the same worker: the
// running node is joined, not measured again, the node it seeds runs
// after it, and a further replay is answered from the completion caches
// — every Result byte-identical to local.
func TestCoordinatorRestartInFlightLeases(t *testing.T) {
	w1 := startWorker(t, "w1", nil)
	w2 := startWorker(t, "w2", nil)
	sum := func(f func(w *Worker) uint64) uint64 { return f(w1.w) + f(w2.w) }
	running := func() uint64 { return sum(func(w *Worker) uint64 { return uint64(w.runningCount()) }) }
	hits := func() uint64 { return sum(func(w *Worker) uint64 { return w.dedupeHits.Load() }) }
	runs := func() uint64 { return sum(func(w *Worker) uint64 { return w.nodesRun.Load() }) }
	started, release := armGate(t)

	// First coordinator: cancelled while the held node runs on a worker.
	c1 := newTestCoordinator(t, time.Minute, w1, w2)
	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = distRun(ctx1, c1, gatedCampaign)
	}()
	<-started
	cancel1()
	<-done
	// The worker finishes what it started under its own context, so the
	// held node outlives the coordinator that dispatched it.
	if running() != 1 {
		t.Fatalf("%d nodes running after the coordinator died, want the held one", running())
	}

	// Second coordinator: same fleet, fresh state. Its only ready node is
	// the held one, so the dedupe hit it scores while the gate is shut is
	// the join of the running node.
	hits0 := hits()
	c2 := newTestCoordinator(t, time.Minute, w1, w2)
	type result struct {
		res *rooftune.Result
		err error
	}
	second := make(chan result, 1)
	go func() {
		res, err := distRun(context.Background(), c2, gatedCampaign)
		second <- result{res, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); hits() == hits0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second coordinator never joined the running node")
		}
	}
	if running() != 1 {
		t.Fatalf("%d nodes running during the join, want the held one", running())
	}
	release()
	r := <-second
	if r.err != nil {
		t.Fatal(r.err)
	}
	requireLocal(t, "after coordinator restart", gatedCampaign, r.res)
	if n := runs(); n != 2 {
		t.Fatalf("two nodes measured %d times in all", n)
	}

	// Idempotency: replaying the whole campaign a second time measures
	// nothing — every node answers from the completion caches.
	c3 := newTestCoordinator(t, time.Minute, w1, w2)
	res, err := distRun(context.Background(), c3, gatedCampaign)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "replay", gatedCampaign, res)
	if n := runs(); n != 2 {
		t.Fatalf("replay re-measured nodes: %d fresh runs", n-2)
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

	res, err := distRun(context.Background(), c, chainedCampaign)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "local fallback", chainedCampaign, res)
	if st := c.Stats(); st.LocalFallback == 0 {
		t.Fatalf("dead fleet but no local fallback recorded: %+v", st)
	}
	if live, _ := c.Workers(); live != 0 {
		t.Fatalf("dead fleet reports %d live workers", live)
	}
}

// TestOtherDialectWorkerNotLive: a worker whose heartbeat speaks
// another dialect would reject every node spec as a bad node, which
// fails the node rather than moving it on. The probe must therefore
// not enroll it: the pool counts it dead, no node is sent to it, and
// the campaign runs on the rest of the fleet byte-identically to a
// local run.
func TestOtherDialectWorkerNotLive(t *testing.T) {
	var runs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc(distv1.PathHealth, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"schema":"rooftune/dist/v0","worker":"old","running":0,"capacity":2,"nodesRun":0}`)
	})
	mux.HandleFunc(distv1.PathRun, func(w http.ResponseWriter, r *http.Request) {
		runs.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"code":"bad_node","message":"schema \"rooftune/dist/v1\", want \"rooftune/dist/v0\""}}`)
	})
	old := httptest.NewServer(mux)
	t.Cleanup(old.Close)
	c := newTestCoordinator(t, time.Minute, &testWorker{ts: old}, startWorker(t, "w", nil))

	if live, dead := c.Workers(); live != 1 || dead != 1 {
		t.Fatalf("Workers() = %d live, %d dead; want 1 live, 1 dead", live, dead)
	}
	res, err := distRun(context.Background(), c, chainedCampaign)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "run beside an other-dialect worker", chainedCampaign, res)
	if n := runs.Load(); n != 0 {
		t.Fatalf("%d node specs sent to the other-dialect worker", n)
	}
}

// TestOversizedOutcomeRejected: the coordinator reads at most
// maxResponseBytes of a worker's answer. A worker that pads its
// outcomes past the cap is marked dead and its nodes run locally, with
// the Result still byte-identical; uncapped, the padded outcome would be
// read whole and accepted.
func TestOversizedOutcomeRejected(t *testing.T) {
	pad := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != distv1.PathRun {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			w.WriteHeader(rec.Code)
			w.Write(bytes.Repeat([]byte(" "), 2<<20))
			w.Write(rec.Body.Bytes())
		})
	}
	c := newTestCoordinator(t, time.Minute, startWorker(t, "padded", pad))

	res, err := distRun(context.Background(), c, chainedCampaign)
	if err != nil {
		t.Fatal(err)
	}
	requireLocal(t, "run beside a padding worker", chainedCampaign, res)
	if st := c.Stats(); st.LocalFallback == 0 || st.WorkerErrors == 0 {
		t.Fatalf("padded outcomes accepted: %+v", st)
	}
}

// TestLegacyBoundPushNotFound: a coordinator built before the bound
// endpoint was removed still pushes to POST /dist/v1/bound on lease
// expiry. Those pushes were fire-and-forget, so the worker answering
// 404 is the whole interop contract — and the worker must go on
// serving node runs afterwards.
func TestLegacyBoundPushNotFound(t *testing.T) {
	w := startWorker(t, "w", nil)
	push := `{"schema":"` + distv1.Schema + `","fingerprint":"nope","value":42}`
	resp, err := http.Post(w.ts.URL+"/dist/v1/bound", "application/json", strings.NewReader(push))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy bound push: status %d, want 404", resp.StatusCode)
	}

	camp, sess, err := resolve(chainedCampaign)
	if err != nil {
		t.Fatal(err)
	}
	campFP, err := sess.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	campJSON, err := json.Marshal(camp)
	if err != nil {
		t.Fatal(err)
	}
	const nodeID = "triad/L2/1s"
	spec, err := json.Marshal(distv1.NodeSpec{
		Schema:      distv1.Schema,
		Campaign:    campJSON,
		NodeID:      nodeID,
		Fingerprint: distv1.NodeFingerprint(campFP, nodeID, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(w.ts.URL+distv1.PathRun, "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out distv1.NodeOutcome
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.NodeID != nodeID {
		t.Fatalf("run after legacy push: status %d, node %q, want 200 %q", resp.StatusCode, out.NodeID, nodeID)
	}
}

// TestOversizedSpecRejected: a node spec over maxBodyBytes is refused as
// a bad request instead of being read to the end. Uncapped, the padded
// spec would parse and fail later as a bad node.
func TestOversizedSpecRejected(t *testing.T) {
	w := startWorker(t, "w", nil)
	spec := strings.Repeat(" ", 2<<20) + `{"schema":"` + distv1.Schema + `","campaign":` + chainedCampaign + `,"nodeId":"triad/L2","fingerprint":"bogus"}`
	resp, err := http.Post(w.ts.URL+distv1.PathRun, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env distv1.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != distv1.CodeBadRequest {
		t.Fatalf("2 MiB spec got status %d code %q (%s), want 400 %q",
			resp.StatusCode, env.Error.Code, env.Error.Message, distv1.CodeBadRequest)
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

// The census workload counts how often a worker plans and fingerprints
// a campaign. Its plan has three measured nodes beside a sentinel node
// that no test dispatches: only Fingerprint, which renders every node,
// reads the sentinel case's config, so sentinelRenders counts
// fingerprints and censusPlans counts plans (one per session built).
var (
	censusPlans     atomic.Int64
	sentinelRenders atomic.Int64
)

func init() {
	if err := rooftune.RegisterWorkload(censusWorkload{}); err != nil {
		panic(err)
	}
}

type censusWorkload struct{}

func (censusWorkload) Name() string { return "distcensus" }

func (censusWorkload) Plan(t rooftune.Target, p rooftune.Params) (rooftune.Plan, error) {
	censusPlans.Add(1)
	var plan rooftune.Plan
	if t.IsNative() {
		return plan, fmt.Errorf("distcensus: simulated only")
	}
	for i, region := range []string{"A", "B", "C", "SENTINEL"} {
		clock := vclock.NewVirtual()
		c := &censusCase{clock: clock, sentinel: region == "SENTINEL"}
		plan.Add(
			"distcensus/"+region,
			sweep.Spec{Name: "distcensus " + region, Clock: clock, Cases: []bench.Case{c}},
			rooftune.Point{Sockets: 1 + i, Region: region},
		)
	}
	return plan, nil
}

type censusCase struct {
	clock    *vclock.Virtual
	sentinel bool
}

func (c *censusCase) Key() string          { return fmt.Sprintf("distcensus/%t", c.sentinel) }
func (c *censusCase) Describe() string     { return "distcensus" }
func (c *censusCase) Metric() bench.Metric { return bench.MetricBandwidth }
func (c *censusCase) Config() bench.Config {
	if c.sentinel {
		sentinelRenders.Add(1)
	}
	return bench.TriadConfig{Elements: 1 << 12, Sockets: 1}
}

func (c *censusCase) NewInvocation(inv int) (bench.Instance, error) {
	return &censusInstance{clock: c.clock}, nil
}

type censusInstance struct{ clock *vclock.Virtual }

func (i *censusInstance) Step() time.Duration {
	i.clock.Advance(time.Millisecond)
	return time.Millisecond
}

func (i *censusInstance) Work() float64 { return 1 }
func (i *censusInstance) Warmup()       { i.Step() }
func (i *censusInstance) Close()        {}

const censusCampaign = `{"system": "Gold 6148", "workloads": ["distcensus"]}`

// postSpec posts one node spec for the campaign body to the worker and
// returns the status, the dedupe header and the error (zero on
// success). fp is the campaign fingerprint the spec's node fingerprint
// is derived from.
func postSpec(t *testing.T, w *testWorker, campJSON []byte, fp, nodeID string) (status int, dedupe string, failure distv1.Error) {
	t.Helper()
	spec, err := json.Marshal(distv1.NodeSpec{
		Schema:      distv1.Schema,
		Campaign:    campJSON,
		NodeID:      nodeID,
		Fingerprint: distv1.NodeFingerprint(fp, nodeID, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(w.ts.URL+distv1.PathRun, "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env distv1.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, "", env.Error
	}
	return resp.StatusCode, resp.Header.Get(distv1.DedupeHeader), distv1.Error{}
}

// censusSpec resolves the census campaign as a coordinator does: its
// wire bytes, marshalled once, and its fingerprint.
func censusSpec(t *testing.T) ([]byte, string) {
	t.Helper()
	camp, sess, err := resolve(censusCampaign)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sess.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	campJSON, err := json.Marshal(camp)
	if err != nil {
		t.Fatal(err)
	}
	return campJSON, fp
}

// TestWorkerFingerprintsCampaignOnce: the node specs of one campaign
// carry identical campaign bytes, so a worker fingerprints the campaign
// once however many of its nodes it receives, builds a session only for
// a node it measures, and answers a replayed node with no session built.
func TestWorkerFingerprintsCampaignOnce(t *testing.T) {
	w := startWorker(t, "w", nil)
	campJSON, fp := censusSpec(t)
	nodes := []string{"distcensus/A", "distcensus/B", "distcensus/C"}
	renders0, plans0 := sentinelRenders.Load(), censusPlans.Load()
	for _, want := range []string{"miss", "hit"} {
		for _, id := range nodes {
			status, dedupe, failure := postSpec(t, w, campJSON, fp, id)
			if status != http.StatusOK || dedupe != want {
				t.Fatalf("node %s: status %d %+v, dedupe %q; want 200, dedupe %q", id, status, failure, dedupe, want)
			}
		}
		if got := sentinelRenders.Load() - renders0; got != 1 {
			t.Fatalf("after the %s round the worker fingerprinted the campaign %d times, want 1", want, got)
		}
		if got := censusPlans.Load() - plans0; got != int64(len(nodes)) {
			t.Fatalf("after the %s round the worker planned %d sessions for %d measured nodes", want, got, len(nodes))
		}
	}
	if n := w.w.nodesRun.Load(); n != uint64(len(nodes)) {
		t.Fatalf("worker measured %d nodes, want %d", n, len(nodes))
	}
}

// TestWorkerRejectsTamperedCampaign: campaign bytes that differ from
// the ones a spec's fingerprint was derived from are resolved afresh,
// not matched to the memo, so a spec carrying tampered bytes under the
// stale fingerprint is refused as a bad node and measures nothing.
func TestWorkerRejectsTamperedCampaign(t *testing.T) {
	w := startWorker(t, "w", nil)
	campJSON, fp := censusSpec(t)
	if status, _, failure := postSpec(t, w, campJSON, fp, "distcensus/A"); status != http.StatusOK {
		t.Fatalf("genuine spec: status %d %+v", status, failure)
	}
	tampered := bytes.Replace(campJSON, []byte(`"system":"Gold 6148"`), []byte(`"system":"Gold 6148","seed":7`), 1)
	if bytes.Equal(tampered, campJSON) {
		t.Fatalf("tampering left %s unchanged", campJSON)
	}
	for _, id := range []string{"distcensus/A", "distcensus/B"} {
		status, _, failure := postSpec(t, w, tampered, fp, id)
		if status != http.StatusBadRequest || failure.Code != distv1.CodeBadNode {
			t.Fatalf("tampered campaign, node %s: status %d %+v, want 400 %q", id, status, failure, distv1.CodeBadNode)
		}
	}
	if n := w.w.nodesRun.Load(); n != 1 {
		t.Fatalf("worker measured %d nodes, want only the genuine one", n)
	}
}

// TestWorkerInvalidCampaignNotMemoized: campaign bytes that do not
// resolve are refused as a bad node every time they arrive, each time
// by resolution itself ("campaign: ..."), never by a fingerprint
// remembered for them.
func TestWorkerInvalidCampaignNotMemoized(t *testing.T) {
	w := startWorker(t, "w", nil)
	for _, camp := range []string{
		`{"system":"warp-drive"}`,
		`{"system":"Gold 6148","workloads":["distcensus"],"typo":1}`,
	} {
		for i := 0; i < 2; i++ {
			status, _, failure := postSpec(t, w, []byte(camp), strings.Repeat("0", 64), "distcensus/A")
			if status != http.StatusBadRequest || failure.Code != distv1.CodeBadNode || !strings.HasPrefix(failure.Message, "campaign: ") {
				t.Fatalf("%s, attempt %d: status %d %+v, want 400 %q from resolution", camp, i, status, failure, distv1.CodeBadNode)
			}
		}
	}
}

// TestCoordinatorKeepsWorkerConnections holds k > 2 dispatches to one
// worker open at once, lets them finish, then repeats them: the repeat
// must reuse the first round's connections and dial none. A per-host
// idle limit below k closes the surplus after every burst.
func TestCoordinatorKeepsWorkerConnections(t *testing.T) {
	const k = 5
	var opened atomic.Int64
	arrived := make(chan struct{}, k) // one send per held dispatch of a round
	var release chan struct{}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-release
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := NewCoordinator(Config{Workers: []string{ts.URL}})

	// returned receives once per connection the client hands back to its
	// idle pool (kept or, past the pool's per-host limit, closed), so a
	// round ends only once every connection it used is settled.
	returned := make(chan struct{}, k) // one send per dispatch of a round
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		PutIdleConn: func(error) { returned <- struct{}{} },
	})
	round := func() {
		release = make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, _, err := c.postNode(ctx, ts.URL, []byte(`{}`)); err == nil {
					t.Error("the busy worker's answer was accepted")
				}
			}()
		}
		for i := 0; i < k; i++ {
			<-arrived
		}
		close(release)
		wg.Wait()
		for i := 0; i < k; i++ {
			<-returned
		}
	}
	round()
	if got := opened.Load(); got != k {
		t.Fatalf("%d held dispatches opened %d connections", k, got)
	}
	round()
	if got := opened.Load() - k; got != 0 {
		t.Fatalf("repeating %d dispatches opened %d new connections, want 0", k, got)
	}
}
