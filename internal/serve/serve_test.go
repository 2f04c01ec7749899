package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rooftune"
	"rooftune/internal/bench"
	"rooftune/internal/serve/campaign"
	"rooftune/internal/serve/jobs"
	"rooftune/internal/sweep"
	"rooftune/internal/vclock"
	servev1 "rooftune/serve/v1"
)

// kernelExecutions counts every simulated kernel execution the counting
// workload performs, process-wide. Cache-hit assertions are deltas on
// this counter: a hit must move it by exactly zero.
var kernelExecutions atomic.Int64

// countingPlans counts every Plan call of the counting workload,
// process-wide, so tests can assert how often a served campaign is
// planned.
var countingPlans atomic.Int64

func init() {
	if err := rooftune.RegisterWorkload(countingWorkload{}); err != nil {
		panic(err)
	}
}

// countingWorkload is a deterministic toy bandwidth workload (after
// examples/custom-workload) whose every kernel execution increments
// kernelExecutions, and every Plan countingPlans. It gives the tests an
// observable measurement and planning count without touching the real
// engines.
type countingWorkload struct{}

func (countingWorkload) Name() string { return "counting" }

func (countingWorkload) Plan(t rooftune.Target, p rooftune.Params) (rooftune.Plan, error) {
	countingPlans.Add(1)
	var plan rooftune.Plan
	if t.IsNative() {
		return plan, fmt.Errorf("counting: simulated only")
	}
	clock := vclock.NewVirtual()
	var cases []bench.Case
	for elems := 1 << 12; elems <= 1<<16; elems *= 4 {
		cases = append(cases, &countingCase{clock: clock, elems: elems})
	}
	plan.Add(
		"counting/1s",
		sweep.Spec{Name: "counting", Clock: clock, Cases: cases},
		rooftune.Point{Sockets: 1, Region: "COUNT"},
	)
	return plan, nil
}

type countingCase struct {
	clock *vclock.Virtual
	elems int
}

func (c *countingCase) Key() string          { return fmt.Sprintf("counting/%d", c.elems) }
func (c *countingCase) Describe() string     { return fmt.Sprintf("N=%d", c.elems) }
func (c *countingCase) Metric() bench.Metric { return bench.MetricBandwidth }
func (c *countingCase) Config() bench.Config {
	return bench.TriadConfig{Elements: c.elems, Sockets: 1}
}

func (c *countingCase) NewInvocation(inv int) (bench.Instance, error) {
	return &countingInstance{c: c}, nil
}

type countingInstance struct{ c *countingCase }

func (i *countingInstance) bandwidth() float64 {
	n := float64(i.c.elems)
	return 48e9 * n / (n + 1<<14)
}

func (i *countingInstance) Work() float64 { return float64(24 * i.c.elems) }

func (i *countingInstance) Step() time.Duration {
	kernelExecutions.Add(1)
	d := time.Duration(i.Work() / i.bandwidth() * float64(time.Second))
	i.c.clock.Advance(d)
	return d
}

func (i *countingInstance) Warmup() { i.Step() }
func (i *countingInstance) Close()  {}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(context.Background(), Config{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postTune(t *testing.T, base string, campaign string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/tune", "application/json", strings.NewReader(campaign))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const tinyCampaign = `{
	"system": "Gold 6148",
	"workloads": ["dgemm", "triad"],
	"space": [{"n":512,"m":512,"k":128}, {"n":1024,"m":1024,"k":128}],
	"triadLoBytes": 16384,
	"triadHiBytes": 268435456
}`

// TestTuneBitIdenticalToInProcess is the tentpole acceptance: the
// daemon-served DGEMM+TRIAD campaign decodes to exactly the Result an
// in-process Session.Run produces — same Summary bytes, same points.
func TestTuneBitIdenticalToInProcess(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postTune(t, ts.URL, tinyCampaign)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(servev1.CacheHeader); got != "miss" {
		t.Fatalf("first request %s = %q, want miss", servev1.CacheHeader, got)
	}
	var served rooftune.Result
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}

	built, err := campaign.Build([]byte(tinyCampaign))
	if err != nil {
		t.Fatal(err)
	}
	local, err := built.Session.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if served.Summary() != local.Summary() {
		t.Fatalf("served summary differs from in-process:\nserved:\n%s\nlocal:\n%s", served.Summary(), local.Summary())
	}
	if !reflect.DeepEqual(served, *local) {
		t.Fatalf("served Result differs from in-process:\nserved %+v\nlocal  %+v", served, *local)
	}
}

// TestCacheHitZeroKernelExecutions: the second identical request is a
// byte-identical response produced without executing a single kernel.
func TestCacheHitZeroKernelExecutions(t *testing.T) {
	_, ts := newTestServer(t)
	campaign := `{"system": "Gold 6148", "workloads": ["counting"]}`

	before := kernelExecutions.Load()
	resp1, body1 := postTune(t, ts.URL, campaign)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	ran := kernelExecutions.Load() - before
	if ran == 0 {
		t.Fatal("first request executed no kernels — the counter is not wired")
	}
	if got := resp1.Header.Get(servev1.CacheHeader); got != "miss" {
		t.Fatalf("first request %s = %q, want miss", servev1.CacheHeader, got)
	}

	before = kernelExecutions.Load()
	resp2, body2 := postTune(t, ts.URL, campaign)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if got := kernelExecutions.Load() - before; got != 0 {
		t.Fatalf("cache hit executed %d kernels, want 0", got)
	}
	if got := resp2.Header.Get(servev1.CacheHeader); got != "hit" {
		t.Fatalf("second request %s = %q, want hit", servev1.CacheHeader, got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached response not byte-identical:\nfirst  %s\nsecond %s", body1, body2)
	}
	if resp1.Header.Get(servev1.FingerprintHeader) == "" ||
		resp1.Header.Get(servev1.FingerprintHeader) != resp2.Header.Get(servev1.FingerprintHeader) {
		t.Fatalf("fingerprint headers diverge: %q vs %q",
			resp1.Header.Get(servev1.FingerprintHeader), resp2.Header.Get(servev1.FingerprintHeader))
	}
}

// tunePlans posts a campaign to /v1/tune and returns the response, its
// body and how many times the daemon planned the campaign, failing
// unless the request made exactly one result-cache lookup.
func tunePlans(t *testing.T, srv *Server, base, campaign string) (*http.Response, []byte, int64) {
	t.Helper()
	lookups := func() uint64 { st := srv.cache.Stats(); return st.Hits + st.Misses }
	lookups0, plans0 := lookups(), countingPlans.Load()
	resp, body := postTune(t, base, campaign)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := lookups() - lookups0; got != 1 {
		t.Fatalf("one request made %d result-cache lookups, want 1", got)
	}
	return resp, body, countingPlans.Load() - plans0
}

// TestServedCampaignPlansOnce: the daemon plans a campaign only when it
// has to, and every request makes one result-cache lookup. A miss plans
// once and runs the session it built to key the request. A
// byte-identical repeat is keyed from the resolver's memo and plans
// zero times. A re-encoded body of the same campaign is new bytes, so
// it plans once and hits the same entry. A repeat whose result is gone
// (evicted, or never stored) plans once, for the run it needs.
func TestServedCampaignPlansOnce(t *testing.T) {
	const (
		campaign  = `{"system": "Gold 6148", "workloads": ["counting"], "seed": 41}`
		reencoded = `{ "seed":41,
			"workloads":["counting"],	"system":"Gold 6148" }`
		other = `{"system": "Gold 6148", "workloads": ["counting"], "seed": 43}`
	)
	expect := func(t *testing.T, what string, resp *http.Response, plans int64, cache string, wantPlans int64) {
		t.Helper()
		if got := resp.Header.Get(servev1.CacheHeader); got != cache {
			t.Fatalf("%s: %s = %q, want %q", what, servev1.CacheHeader, got, cache)
		}
		if plans != wantPlans {
			t.Fatalf("%s planned the campaign %d times, want %d", what, plans, wantPlans)
		}
	}

	t.Run("repeats", func(t *testing.T) {
		srv, ts := newAdmitServer(t, Config{CacheEntries: 64})
		resp, first, plans := tunePlans(t, srv, ts.URL, campaign)
		expect(t, "a miss", resp, plans, "miss", 1)
		fp := resp.Header.Get(servev1.FingerprintHeader)
		for _, c := range []struct {
			what, body string
			plans      int64
		}{
			{"a byte-identical repeat", campaign, 0},
			{"a re-encoded body", reencoded, 1},
			{"a repeat of the re-encoded body", reencoded, 0},
		} {
			resp, body, plans := tunePlans(t, srv, ts.URL, c.body)
			expect(t, c.what, resp, plans, "hit", c.plans)
			if got := resp.Header.Get(servev1.FingerprintHeader); got != fp {
				t.Fatalf("%s: fingerprint %s, want %s", c.what, got, fp)
			}
			if !bytes.Equal(body, first) {
				t.Fatalf("%s: body differs from the miss", c.what)
			}
		}
	})

	t.Run("evicted", func(t *testing.T) {
		srv, ts := newAdmitServer(t, Config{CacheEntries: 1})
		_, first, _ := tunePlans(t, srv, ts.URL, campaign)
		resp, _, plans := tunePlans(t, srv, ts.URL, other)
		expect(t, "a second campaign", resp, plans, "miss", 1)
		resp, body, plans := tunePlans(t, srv, ts.URL, campaign)
		expect(t, "a repeat after eviction", resp, plans, "miss", 1)
		if !bytes.Equal(body, first) {
			t.Fatal("the re-run after eviction is not byte-identical")
		}
		if ev := srv.cache.Stats().Evictions; ev != 2 {
			t.Fatalf("%d result-cache evictions, want 2", ev)
		}
	})

	t.Run("never stored", func(t *testing.T) {
		// The admission floor refuses every result, so each repeat is a
		// memo hit whose result is missing: it builds the session once,
		// for the run.
		srv, ts := newAdmitServer(t, Config{CacheMinRun: time.Hour})
		for i := 0; i < 3; i++ {
			resp, _, plans := tunePlans(t, srv, ts.URL, campaign)
			expect(t, fmt.Sprintf("request %d", i), resp, plans, "miss", 1)
		}
		if st := srv.cache.Stats(); st.Rejected != 3 || st.Misses != 3 || st.Hits != 0 {
			t.Fatalf("cache stats %+v, want 3 rejected misses", st)
		}
	})
}

// TestConcurrentIdenticalRequestsCollapse: N identical submissions
// racing an empty cache produce one measurement (singleflight) and N
// byte-identical responses.
func TestConcurrentIdenticalRequestsCollapse(t *testing.T) {
	campaign := `{"system": "Gold 6132", "workloads": ["counting"], "seed": 7}`

	// Calibrate one run's kernel-execution count on a throwaway server.
	_, calibration := newTestServer(t)
	before := kernelExecutions.Load()
	if resp, body := postTune(t, calibration.URL, campaign); resp.StatusCode != http.StatusOK {
		t.Fatalf("calibration status %d: %s", resp.StatusCode, body)
	}
	oneRun := kernelExecutions.Load() - before
	if oneRun == 0 {
		t.Fatal("calibration executed no kernels")
	}

	_, ts := newTestServer(t)
	const n = 8
	bodies := make([][]byte, n)
	errs := make([]error, n)
	before = kernelExecutions.Load()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		//rooflint:allow nogoroutine -- test clients; joined by wg.Wait below
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader(campaign))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
				return
			}
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := kernelExecutions.Load() - before; got != oneRun {
		t.Fatalf("%d concurrent identical requests executed %d kernels, want one run's %d", n, got, oneRun)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

// collectSSE reads a job's SSE stream to its end event, decoding each
// data line into a rooftune.Event.
func collectSSE(t *testing.T, url string) ([]rooftune.Event, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var (
		events   []rooftune.Event
		endState string
		inEnd    bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			inEnd = true
		case strings.HasPrefix(line, "data: "):
			payload := strings.TrimPrefix(line, "data: ")
			if inEnd {
				var end struct {
					State string `json:"state"`
				}
				if err := json.Unmarshal([]byte(payload), &end); err != nil {
					t.Fatalf("end payload %q: %v", payload, err)
				}
				return events, end.State
			}
			var ev rooftune.Event
			if err := json.Unmarshal([]byte(payload), &ev); err != nil {
				t.Fatalf("event payload %q: %v", payload, err)
			}
			events = append(events, ev)
		}
	}
	t.Fatalf("stream ended without an end event (read %d events): %v", len(events), sc.Err())
	return events, endState
}

// TestSSEMatchesWithProgress is the streaming acceptance: an SSE client
// observes exactly the event sequence a WithProgress callback sees for
// the same campaign. Serial pins the event order; the values are
// deterministic on the simulated engines either way.
func TestSSEMatchesWithProgress(t *testing.T) {
	src := `{"system": "Gold 6148", "workloads": ["counting"], "serial": true, "seed": 11}`

	// In-process reference: same campaign, progress collected directly.
	var want []rooftune.Event
	built, err := campaign.Build([]byte(src), rooftune.WithProgress(func(ev rooftune.Event) {
		want = append(want, ev)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.Session.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference run emitted no events")
	}

	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	got, endState := collectSSE(t, ts.URL+"/v1/jobs/"+status.ID+"/events")
	if endState != string(jobs.StateDone) {
		t.Fatalf("end state %q, want done", endState)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SSE events diverge from WithProgress:\ngot  %d events %+v\nwant %d events %+v",
			len(got), got, len(want), want)
	}

	// A second subscriber after completion replays the identical history.
	replay, _ := collectSSE(t, ts.URL+"/v1/jobs/"+status.ID+"/events")
	if !reflect.DeepEqual(replay, want) {
		t.Fatalf("post-completion replay diverges: %d events, want %d", len(replay), len(want))
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	campaign := `{"system": "Gold 6148", "workloads": ["counting"], "seed": 23}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(campaign))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, submitted.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State == string(jobs.StateDone) {
			if len(st.Result) == 0 {
				t.Fatal("done job carries no result")
			}
			var res rooftune.Result
			if err := json.Unmarshal(st.Result, &res); err != nil {
				t.Fatalf("embedded result does not decode: %v", err)
			}
			break
		}
		if st.State == string(jobs.StateFailed) {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A cache-hit resubmission is an immediately-done job.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(campaign))
	if err != nil {
		t.Fatal(err)
	}
	var resubmitted struct {
		State  string `json:"state"`
		Cached bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&resubmitted); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || resubmitted.State != string(jobs.StateDone) || !resubmitted.Cached {
		t.Fatalf("resubmit = status %d, %+v; want 200/done/cached", resp2.StatusCode, resubmitted)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for name, campaign := range map[string]string{
		"empty":           `{}`,
		"unknown system":  `{"system": "warp-drive"}`,
		"unknown field":   `{"system": "Gold 6148", "warp": 9}`,
		"unknown worker":  `{"system": "Gold 6148", "workloads": ["warp-kernel"]}`,
		"negative bounds": `{"system": "Gold 6148", "triadLoBytes": -5}`,
		"not json":        `DGEMM please`,
	} {
		resp, body := postTune(t, ts.URL, campaign)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}

	r, err := http.Get(ts.URL + "/v1/jobs/j-999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", r.StatusCode)
	}
}

// TestOversizedBodyRejected: a campaign body over maxCampaignBytes is
// refused as a bad campaign on both POST routes instead of being read
// to the end. The body is a valid campaign padded with whitespace, so
// only the cap can reject it.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t)
	body := strings.Repeat(" ", 2<<20) + tinyCampaign
	for _, path := range []string{"/v1/tune", "/v1/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env servev1.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding the error envelope: %v", path, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != servev1.CodeBadCampaign {
			t.Errorf("%s: 2 MiB body got status %d code %q (%s), want 400 %q",
				path, resp.StatusCode, env.Error.Code, env.Error.Message, servev1.CodeBadCampaign)
		}
	}
}

func TestHealthAndStats(t *testing.T) {
	srv, ts := newTestServer(t)
	r, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", r.StatusCode)
	}

	postTune(t, ts.URL, `{"system": "Gold 6148", "workloads": ["counting"], "seed": 31}`)
	postTune(t, ts.URL, `{"system": "Gold 6148", "workloads": ["counting"], "seed": 31}`)

	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats struct {
		Cache struct {
			Entries int    `json:"entries"`
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
		} `json:"cache"`
		Jobs struct {
			Total  int `json:"total"`
			Active int `json:"active"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Entries != 1 || stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 entry / 1 hit / 1 miss", stats.Cache)
	}
	if stats.Jobs.Total != 1 || stats.Jobs.Active != 0 {
		t.Fatalf("job stats = %+v, want 1 total / 0 active", stats.Jobs)
	}
	_ = srv
}

// TestCachePersistsAcrossServers: a daemon restart with the same cache
// directory serves the previous daemon's results without re-measuring.
func TestCachePersistsAcrossServers(t *testing.T) {
	dir := t.TempDir()
	campaign := `{"system": "Gold 6148", "workloads": ["counting"], "seed": 41}`

	srv1, err := New(context.Background(), Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	_, body1 := postTune(t, ts1.URL, campaign)
	ts1.Close()

	srv2, err := New(context.Background(), Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	before := kernelExecutions.Load()
	resp, body2 := postTune(t, ts2.URL, campaign)
	if got := resp.Header.Get(servev1.CacheHeader); got != "hit" {
		t.Fatalf("restarted daemon %s = %q, want hit", servev1.CacheHeader, got)
	}
	if got := kernelExecutions.Load() - before; got != 0 {
		t.Fatalf("restarted daemon executed %d kernels, want 0", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("restarted daemon's response not byte-identical")
	}
}
