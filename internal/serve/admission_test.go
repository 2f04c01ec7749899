package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rooftune"
	"rooftune/internal/bench"
	"rooftune/internal/sweep"
	"rooftune/internal/vclock"
	servev1 "rooftune/serve/v1"
)

// The stall workload gives admission tests a run whose duration the
// test controls: every kernel execution blocks on stallGate until the
// test opens it, and signals stallStarted on entry so the test can wait
// for runs to be genuinely executing. It also tracks the maximum number
// of concurrently executing runs, which must never exceed -max-jobs.
var (
	stallMu      sync.Mutex
	stallGate    chan struct{}
	stallStarted chan struct{}

	stallCur atomic.Int64
	stallMax atomic.Int64
)

// armStall installs a fresh gate and signal channel and returns the
// release function (idempotent per test via closed-channel semantics).
func armStall(t *testing.T) (started <-chan struct{}, release func()) {
	t.Helper()
	gate := make(chan struct{})
	sig := make(chan struct{}, 64)
	stallMu.Lock()
	stallGate, stallStarted = gate, sig
	stallMu.Unlock()
	stallMax.Store(0)
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return sig, release
}

func init() {
	if err := rooftune.RegisterWorkload(stallWorkload{}); err != nil {
		panic(err)
	}
}

type stallWorkload struct{}

func (stallWorkload) Name() string { return "stall" }

func (stallWorkload) Plan(t rooftune.Target, p rooftune.Params) (rooftune.Plan, error) {
	var plan rooftune.Plan
	if t.IsNative() {
		return plan, fmt.Errorf("stall: simulated only")
	}
	clock := vclock.NewVirtual()
	plan.Add(
		"stall/1s",
		sweep.Spec{Name: "stall", Clock: clock, Cases: []bench.Case{&stallCase{clock: clock}}},
		rooftune.Point{Sockets: 1, Region: "STALL"},
	)
	return plan, nil
}

type stallCase struct{ clock *vclock.Virtual }

func (c *stallCase) Key() string          { return "stall/1" }
func (c *stallCase) Describe() string     { return "stall" }
func (c *stallCase) Metric() bench.Metric { return bench.MetricBandwidth }
func (c *stallCase) Config() bench.Config {
	return bench.TriadConfig{Elements: 1 << 12, Sockets: 1}
}

func (c *stallCase) NewInvocation(inv int) (bench.Instance, error) {
	return &stallInstance{c: c}, nil
}

type stallInstance struct{ c *stallCase }

func (i *stallInstance) Step() time.Duration {
	stallMu.Lock()
	gate, sig := stallGate, stallStarted
	stallMu.Unlock()
	if cur := stallCur.Add(1); cur > stallMax.Load() {
		stallMax.Store(cur)
	}
	defer stallCur.Add(-1)
	if sig != nil {
		select {
		case sig <- struct{}{}:
		default:
		}
	}
	if gate != nil {
		<-gate
	}
	d := time.Millisecond
	i.c.clock.Advance(d)
	return d
}

func (i *stallInstance) Work() float64 { return 1 }
func (i *stallInstance) Warmup()       { i.Step() }
func (i *stallInstance) Close()        {}

// stallCampaign renders a distinct stall campaign per seed.
func stallCampaign(seed int) string {
	return fmt.Sprintf(`{"system": "Gold 6148", "workloads": ["stall"], "seed": %d}`, seed)
}

func newAdmitServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// submitJob POSTs an async job submission for the campaign, tagged with
// the client id, and returns the response with its decoded body.
func submitJob(t *testing.T, base, client, campaign string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/jobs", strings.NewReader(campaign))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set(servev1.ClientHeader, client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := make([]byte, 0, 512)
	buf := make([]byte, 512)
	for {
		n, err := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	return resp, body
}

// waitJobState polls the job until it reaches a terminal state.
func waitJobState(t *testing.T, base, id string) servev1.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st servev1.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return servev1.JobStatus{}
}

// scrapeMetrics fetches the full /metrics exposition, asserting the
// Prometheus text-format content type.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	return body.String()
}

func parseMetric(t *testing.T, exposition, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not in exposition:\n%s", sample, exposition)
	return 0
}

// TestAdmissionDistinctFloodSheds is the acceptance scenario: with
// -max-jobs=2 -queue-depth=2, five distinct campaigns submitted in
// order leave two running, two queued, and shed the fifth with 429, the
// exact configured Retry-After and the structured error envelope — and
// the /metrics counters reconcile exactly with that traffic.
func TestAdmissionDistinctFloodSheds(t *testing.T) {
	_, release := armStall(t)
	_, ts := newAdmitServer(t, Config{
		CacheEntries: 64, MaxJobs: 2, QueueDepth: 2, RetryAfter: 3 * time.Second,
	})

	var ids []string
	for seed := 1; seed <= 4; seed++ {
		resp, body := submitJob(t, ts.URL, "flood", stallCampaign(seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", seed, resp.StatusCode, body)
		}
		var st servev1.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// The fifth distinct campaign finds the queue full: deterministic
	// shed with the configured hint in both header and envelope.
	resp, body := submitJob(t, ts.URL, "flood", stallCampaign(5))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fifth submit: status %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q", got, "3")
	}
	var envelope servev1.ErrorEnvelope
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("shed body is not the error envelope: %v: %s", err, body)
	}
	if envelope.Error.Code != servev1.CodeOverloaded {
		t.Fatalf("shed code = %q, want %q", envelope.Error.Code, servev1.CodeOverloaded)
	}
	if envelope.Error.RetryAfterSeconds != 3 {
		t.Fatalf("shed retryAfterSeconds = %d, want 3", envelope.Error.RetryAfterSeconds)
	}
	shedID := resp.Header.Get(servev1.JobHeader)
	if st := waitJobState(t, ts.URL, shedID); st.State != servev1.StateShed || st.RetryAfterSeconds != 3 {
		t.Fatalf("shed job status: %+v", st)
	}

	// Resubmitting the shed fingerprint after load drains gets a fresh
	// admission (the shed job is terminal, not sticky).
	release()
	for _, id := range ids {
		if st := waitJobState(t, ts.URL, id); st.State != servev1.StateDone {
			t.Fatalf("job %s: state %q: %s", id, st.State, st.Error)
		}
	}
	resp, body = submitJob(t, ts.URL, "flood", stallCampaign(5))
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit after drain: status %d: %s", resp.StatusCode, body)
	}
	var st servev1.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if fin := waitJobState(t, ts.URL, st.ID); fin.State != servev1.StateDone {
		t.Fatalf("resubmitted job: %+v", fin)
	}

	// Concurrency never exceeded the -max-jobs bound.
	if got := stallMax.Load(); got > 2 {
		t.Fatalf("observed %d concurrently executing runs, want <= 2", got)
	}

	// The exposition reconciles exactly with the driven traffic: five
	// grants (four flood + one resubmission), one queue-full shed, six
	// submit-time cache misses (each submission probed the cache, the
	// shed one included), zero hits so far.
	exposition := scrapeMetrics(t, ts.URL)
	checks := map[string]float64{
		`roofserve_admission_granted_total`:                     5,
		`roofserve_admission_shed_total{reason="queue_full"}`:   1,
		`roofserve_admission_shed_total{reason="client_quota"}`: 0,
		`roofserve_admission_queue_depth`:                       0,
		`roofserve_cache_misses_total`:                          6,
		`roofserve_cache_hits_total`:                            0,
		`roofserve_cache_entries`:                               5,
		`roofserve_jobs{state="done"}`:                          5,
		`roofserve_jobs{state="shed"}`:                          1,
		`roofserve_jobs{state="running"}`:                       0,
		`roofserve_jobs{state="queued"}`:                        0,
	}
	for sample, want := range checks {
		if got := parseMetric(t, exposition, sample); got != want {
			t.Errorf("%s = %v, want %v", sample, got, want)
		}
	}

	// One cache hit via the synchronous path moves exactly one counter.
	tuneResp, tuneBody := postTune(t, ts.URL, stallCampaign(1))
	if tuneResp.StatusCode != http.StatusOK || tuneResp.Header.Get(servev1.CacheHeader) != "hit" {
		t.Fatalf("post-drain tune: status %d, %s = %q: %s",
			tuneResp.StatusCode, servev1.CacheHeader, tuneResp.Header.Get(servev1.CacheHeader), tuneBody)
	}
	exposition = scrapeMetrics(t, ts.URL)
	if got := parseMetric(t, exposition, "roofserve_cache_hits_total"); got != 1 {
		t.Errorf("hits after cached tune = %v, want 1", got)
	}
	if got := parseMetric(t, exposition, "roofserve_cache_misses_total"); got != 6 {
		t.Errorf("misses after cached tune = %v, want 6", got)
	}
}

// TestAdmissionIdenticalFloodCollapses: submissions of the same
// fingerprint join the in-flight job, so a flood of identical campaigns
// costs exactly one admission even when MaxJobs is 1 and the queue is
// disabled.
func TestAdmissionIdenticalFloodCollapses(t *testing.T) {
	started, release := armStall(t)
	_, ts := newAdmitServer(t, Config{
		CacheEntries: 16, MaxJobs: 1, QueueDepth: 0,
	})
	campaign := stallCampaign(77)

	resp, body := submitJob(t, ts.URL, "a", campaign)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, body)
	}
	var first servev1.JobStatus
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("run never started executing")
	}

	// Seven more identical submissions, from different clients, while
	// the run is blocked: all join, none is admitted, none is shed.
	for i := 0; i < 7; i++ {
		resp, body := submitJob(t, ts.URL, fmt.Sprintf("client-%d", i), campaign)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("join %d: status %d: %s", i, resp.StatusCode, body)
		}
		var st servev1.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.ID != first.ID {
			t.Fatalf("join %d minted job %s, want singleflight join of %s", i, st.ID, first.ID)
		}
	}

	release()
	if st := waitJobState(t, ts.URL, first.ID); st.State != servev1.StateDone {
		t.Fatalf("job: %+v", st)
	}

	exposition := scrapeMetrics(t, ts.URL)
	if got := parseMetric(t, exposition, "roofserve_admission_granted_total"); got != 1 {
		t.Errorf("granted = %v, want 1 (identical flood collapses to one admission)", got)
	}
	for _, reason := range []string{"queue_full", "client_quota"} {
		if got := parseMetric(t, exposition, fmt.Sprintf("roofserve_admission_shed_total{reason=%q}", reason)); got != 0 {
			t.Errorf("shed{%s} = %v, want 0", reason, got)
		}
	}
}

// TestAdmissionPerClientFairness: with a per-client queue quota of one,
// a client that already holds a queue slot is refused (client_quota)
// while other clients still queue freely.
func TestAdmissionPerClientFairness(t *testing.T) {
	started, release := armStall(t)
	_, ts := newAdmitServer(t, Config{
		CacheEntries: 16, MaxJobs: 1, QueueDepth: 4, PerClientQueue: 1, RetryAfter: time.Second,
	})

	resp, body := submitJob(t, ts.URL, "greedy", stallCampaign(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, body)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("run never started executing")
	}

	var ids []string
	resp, body = submitJob(t, ts.URL, "greedy", stallCampaign(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("greedy queue slot: status %d: %s", resp.StatusCode, body)
	}
	var st servev1.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, st.ID)

	// The greedy client's second distinct campaign is refused even
	// though the global queue has room.
	resp, body = submitJob(t, ts.URL, "greedy", stallCampaign(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("greedy overflow: status %d, want 429: %s", resp.StatusCode, body)
	}
	var envelope servev1.ErrorEnvelope
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != servev1.CodeOverloaded || envelope.Error.RetryAfterSeconds != 1 {
		t.Fatalf("greedy overflow envelope: %+v", envelope.Error)
	}

	// A different client still queues.
	resp, body = submitJob(t, ts.URL, "patient", stallCampaign(4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("patient submit: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, st.ID)

	release()
	for _, id := range ids {
		if st := waitJobState(t, ts.URL, id); st.State != servev1.StateDone {
			t.Fatalf("job %s: %+v", id, st)
		}
	}

	exposition := scrapeMetrics(t, ts.URL)
	if got := parseMetric(t, exposition, `roofserve_admission_shed_total{reason="client_quota"}`); got != 1 {
		t.Errorf("shed{client_quota} = %v, want 1", got)
	}
	if got := parseMetric(t, exposition, `roofserve_admission_shed_total{reason="queue_full"}`); got != 0 {
		t.Errorf("shed{queue_full} = %v, want 0", got)
	}
	if got := parseMetric(t, exposition, "roofserve_admission_granted_total"); got != 3 {
		t.Errorf("granted = %v, want 3", got)
	}
}

// TestAdmissionCacheTTLAcrossRestart: a persisted entry older than the
// TTL is not served by a restarted daemon — the campaign re-runs and
// the expired file is gone.
func TestAdmissionCacheTTLAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	campaign := `{"system": "Gold 6148", "workloads": ["counting"], "seed": 9}`

	srv1, err := New(context.Background(), Config{CacheDir: dir, CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	resp, body := postTune(t, ts1.URL, campaign)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	key := resp.Header.Get(servev1.FingerprintHeader)
	ts1.Close()

	// Age the persisted entry past the TTL.
	file := filepath.Join(dir, key+".json")
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(file, old, old); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(context.Background(), Config{CacheDir: dir, CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	before := kernelExecutions.Load()
	resp, body = postTune(t, ts2.URL, campaign)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(servev1.CacheHeader); got != "miss" {
		t.Fatalf("%s = %q after TTL expiry, want miss", servev1.CacheHeader, got)
	}
	if got := kernelExecutions.Load() - before; got == 0 {
		t.Fatal("expired entry served without re-measuring")
	}

	// A third run on the same daemon is a hit again: the rerun was
	// cached fresh.
	before = kernelExecutions.Load()
	resp, _ = postTune(t, ts2.URL, campaign)
	if got := resp.Header.Get(servev1.CacheHeader); got != "hit" {
		t.Fatalf("%s = %q after refresh, want hit", servev1.CacheHeader, got)
	}
	if got := kernelExecutions.Load() - before; got != 0 {
		t.Fatalf("refreshed hit executed %d kernels, want 0", got)
	}
}

// TestAdmissionQueuedJobCancellation: cancelling a job that is waiting
// in the admission queue fails it without ever running, and the slot
// accounting drains clean.
func TestAdmissionQueuedJobCancellation(t *testing.T) {
	started, release := armStall(t)
	srv, ts := newAdmitServer(t, Config{
		CacheEntries: 16, MaxJobs: 1, QueueDepth: 2,
	})

	resp, body := submitJob(t, ts.URL, "a", stallCampaign(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, body)
	}
	var running servev1.JobStatus
	if err := json.Unmarshal(body, &running); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("run never started executing")
	}

	resp, body = submitJob(t, ts.URL, "b", stallCampaign(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: status %d: %s", resp.StatusCode, body)
	}
	var queued servev1.JobStatus
	if err := json.Unmarshal(body, &queued); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()

	if st := waitJobState(t, ts.URL, queued.ID); st.State != servev1.StateFailed {
		t.Fatalf("cancelled queued job: %+v", st)
	}

	release()
	if st := waitJobState(t, ts.URL, running.ID); st.State != servev1.StateDone {
		t.Fatalf("running job after queue cancel: %+v", st)
	}
	if s := srv.adm.Stats(); s.Running != 0 || s.Queued != 0 {
		t.Fatalf("admission not drained: %+v", s)
	}
}
