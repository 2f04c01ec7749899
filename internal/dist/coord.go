package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"rooftune"
	distv1 "rooftune/dist/v1"
	"rooftune/internal/serve/metrics"
	servev1 "rooftune/serve/v1"
)

// Config configures a Coordinator.
type Config struct {
	// Workers lists the worker base URLs (http://host:port). Empty is
	// allowed — every node then falls back to local execution.
	Workers []string
	// Heartbeat is the worker health-probe interval (<=0: 2s).
	Heartbeat time.Duration
	// Lease bounds how long one dispatch may stay unanswered before the
	// node is requeued to another worker (<=0: 60s). The original
	// attempt is not cancelled: completion is idempotent by node
	// fingerprint and first answer wins.
	Lease time.Duration
	// Client is the HTTP client for probes and dispatches (nil: the
	// coordinator's own client, which keeps every idle connection to a
	// worker for reuse). It must not carry a client-wide Timeout —
	// node runs are long-polls bounded by per-request contexts.
	Client *http.Client
	// Metrics, when set, receives the coordinator's roofdist_* series.
	Metrics *metrics.Set
}

// Stats is a snapshot of the coordinator's dispatch accounting.
type Stats struct {
	// Dispatched counts node attempts sent to workers (requeues count
	// again).
	Dispatched uint64
	// Requeued counts nodes re-dispatched after a worker failure or
	// lease expiry.
	Requeued uint64
	// Deduped counts duplicate node completions dropped because another
	// attempt answered first.
	Deduped uint64
	// LeaseExpired counts lease timers that fired on unanswered
	// dispatches.
	LeaseExpired uint64
	// LocalFallback counts nodes executed in-process because no live
	// worker remained.
	LocalFallback uint64
	// WorkerErrors counts failed dispatch attempts (connection errors
	// and node-failed responses).
	WorkerErrors uint64
}

// Coordinator fans a campaign's plan-graph nodes out to the worker
// fleet. It owns no scheduling logic of its own: the caller's
// Session.RunDist executes the normal topological plan schedule and
// calls the coordinator's Exec hook once per ready node; the
// coordinator's job is purely transport and robustness — worker
// placement, leases, requeue, dedupe and the local fallback.
type Coordinator struct {
	pool   *Pool
	lease  time.Duration
	client *http.Client

	roundtrip *metrics.Histogram

	dispatched    atomic.Uint64
	requeued      atomic.Uint64
	deduped       atomic.Uint64
	leaseExpired  atomic.Uint64
	localFallback atomic.Uint64
	workerErrors  atomic.Uint64
}

// NewCoordinator builds a coordinator over the configured fleet and, if
// cfg.Metrics is set, registers its series. Call Start to begin health
// probing.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Lease <= 0 {
		cfg.Lease = 60 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: keepAliveTransport()}
	}
	c := &Coordinator{
		pool:   NewPool(cfg.Workers, cfg.Heartbeat, client),
		lease:  cfg.Lease,
		client: client,
	}
	if cfg.Metrics != nil {
		c.register(cfg.Metrics)
	}
	return c
}

// keepAliveTransport is http.DefaultTransport's configuration with every
// idle connection allowed to stay with one host. Dispatches to one
// worker overlap (several campaigns, each with several ready nodes);
// with the default 2 idle connections per host, every burst of more
// would close its surplus connections and the next would dial them
// again.
func keepAliveTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = t.MaxIdleConns
	return t
}

// Start launches the fleet's heartbeat loop and blocks for one initial
// probe sweep, so the first dispatch after Start sees a fresh view.
func (c *Coordinator) Start(ctx context.Context) {
	c.pool.CheckNow(ctx)
	c.pool.Start(ctx)
}

// register attaches the coordinator's series to the daemon's metric
// set.
func (c *Coordinator) register(m *metrics.Set) {
	m.GaugeFunc("roofdist_workers", `state="live"`,
		"Workers by health state as of the last probe.",
		func() float64 { return float64(c.pool.Live()) })
	m.GaugeFunc("roofdist_workers", `state="dead"`, "",
		func() float64 { return float64(c.pool.Dead()) })
	m.CounterFunc("roofdist_nodes_dispatched_total", "",
		"Node attempts sent to workers (requeues count again).",
		c.dispatched.Load)
	m.CounterFunc("roofdist_nodes_requeued_total", "",
		"Nodes re-dispatched after a worker failure or lease expiry.",
		c.requeued.Load)
	m.CounterFunc("roofdist_nodes_deduped_total", "",
		"Duplicate node completions dropped (first answer won).",
		c.deduped.Load)
	m.CounterFunc("roofdist_lease_expired_total", "",
		"Lease timers fired on unanswered dispatches.",
		c.leaseExpired.Load)
	m.CounterFunc("roofdist_local_fallback_total", "",
		"Nodes executed in-process because no live worker remained.",
		c.localFallback.Load)
	m.CounterFunc("roofdist_worker_errors_total", "",
		"Failed dispatch attempts (connection errors, node failures).",
		c.workerErrors.Load)
	c.roundtrip = m.Histogram("roofdist_node_roundtrip_seconds",
		"Wall time from node dispatch to first completed answer.",
		[]float64{0.01, 0.05, 0.25, 1, 5, 30, 120})
}

// Stats snapshots the dispatch accounting.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Dispatched:    c.dispatched.Load(),
		Requeued:      c.requeued.Load(),
		Deduped:       c.deduped.Load(),
		LeaseExpired:  c.leaseExpired.Load(),
		LocalFallback: c.localFallback.Load(),
		WorkerErrors:  c.workerErrors.Load(),
	}
}

// Workers exposes the fleet view (live, dead) for status surfaces.
func (c *Coordinator) Workers() (live, dead int) {
	return c.pool.Live(), c.pool.Dead()
}

// Exec returns the node executor that runs camp's plan-graph nodes on
// the fleet; pass it to the campaign's Session.RunDist. campFP must be
// the fingerprint of the session camp resolves to — the caller already
// computed it as its cache key — because workers resolve the wire
// campaign themselves and refuse a node whose fingerprint does not
// match. camp is marshalled once, so every node spec of the campaign
// carries identical bytes and a worker fingerprints it once.
func (c *Coordinator) Exec(camp servev1.Campaign, campFP string) rooftune.NodeExec {
	campJSON, err := json.Marshal(camp)
	return func(ctx context.Context, nodeID string, seedValue float64) (*distv1.NodeOutcome, error) {
		if err != nil {
			return nil, fmt.Errorf("dist: encode campaign: %w", err)
		}
		return c.execNode(ctx, campJSON, campFP, nodeID, seedValue)
	}
}

// attemptResult is one dispatch attempt's terminal report back to the
// node's dispatch loop.
type attemptResult struct {
	url       string
	out       *distv1.NodeOutcome
	err       error
	retryable bool
	dead      bool // the failure indicts the worker, not the node spec
}

// execNode runs one plan node remotely: dispatch to the live worker the
// node fingerprint places it on (Pool.pick), requeue on failure or
// lease expiry (without cancelling the slow attempt — completion is
// idempotent by fingerprint and first answer wins), dedupe late
// duplicates, and fall back to local execution when the fleet is
// exhausted.
func (c *Coordinator) execNode(ctx context.Context, campJSON []byte, campFP, nodeID string, seedValue float64) (*distv1.NodeOutcome, error) {
	fp := distv1.NodeFingerprint(campFP, nodeID, seedValue)
	spec := distv1.NodeSpec{
		Schema:      distv1.Schema,
		Campaign:    campJSON,
		NodeID:      nodeID,
		SeedValue:   seedValue,
		Fingerprint: fp,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("dist: encode node %s: %w", nodeID, err)
	}

	var won atomic.Bool
	// Buffered to the fleet size — the most attempts one node can ever
	// accumulate — so a late failing attempt never blocks after the
	// dispatch loop stopped listening.
	results := make(chan attemptResult, c.pool.size())
	tried := make(map[string]bool)
	start := time.Now()

	// launch places the node on its next-ranked untried live worker and
	// starts an attempt; false means the fleet is exhausted for this node.
	launch := func() bool {
		url, ok := c.pool.pick(fp, tried)
		if !ok {
			return false
		}
		tried[url] = true
		c.dispatched.Add(1)
		//rooflint:allow nogoroutine -- one dispatch attempt; delivers its terminal result (or observes ctx.Done) via the results channel, so it cannot outlive the dispatch loop's interest
		go c.attempt(ctx, url, body, fp, &won, results)
		return true
	}

	if !launch() {
		c.localFallback.Add(1)
		return nil, rooftune.ErrExecLocal
	}
	out, err := c.await(ctx, results, launch)
	if err != nil {
		return nil, err
	}
	if c.roundtrip != nil {
		c.roundtrip.Observe(time.Since(start).Seconds())
	}
	return out, nil
}

// await is the per-node dispatch loop: it collects attempt results,
// requeues on failure or lease expiry, and returns the first completed
// answer. It allocates nothing per iteration — lease timers are reused
// and requeues reuse the prepared request body.
//
//rooflint:hotpath
func (c *Coordinator) await(ctx context.Context, results chan attemptResult, launch func() bool) (*distv1.NodeOutcome, error) {
	outstanding := 1
	timer := time.NewTimer(c.lease)
	defer timer.Stop()
	for {
		select {
		case a := <-results:
			outstanding--
			if a.err == nil {
				return a.out, nil
			}
			c.workerErrors.Add(1)
			if a.dead {
				c.pool.markDead(a.url)
			}
			if !a.retryable {
				return nil, a.err
			}
			if launch() {
				outstanding++
				c.requeued.Add(1)
				continue
			}
			if outstanding == 0 {
				// Fleet exhausted and nothing still in flight: run the
				// node locally rather than fail the sweep.
				c.localFallback.Add(1)
				return nil, rooftune.ErrExecLocal
			}
		case <-timer.C:
			c.leaseExpired.Add(1)
			if launch() {
				outstanding++
				c.requeued.Add(1)
			}
			timer.Reset(c.lease)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// attempt runs one node dispatch against one worker and reports the
// terminal result. Late successful completions (another attempt already
// won) are counted as deduped and dropped without a report — the loop
// stopped listening the moment the winner arrived.
func (c *Coordinator) attempt(ctx context.Context, url string, body []byte, fp string, won *atomic.Bool, results chan<- attemptResult) {
	out, retryable, dead, err := c.postNode(ctx, url, body)
	if err == nil && !won.CompareAndSwap(false, true) {
		c.deduped.Add(1)
		return
	}
	select {
	case results <- attemptResult{url: url, out: out, err: err, retryable: retryable, dead: dead}:
	case <-ctx.Done():
	}
}

// postNode performs the dist/v1 run request. retryable reports whether
// another worker might succeed where this one failed; dead reports
// whether the failure indicts the worker itself (connection-level
// errors) rather than the node.
func (c *Coordinator) postNode(ctx context.Context, url string, body []byte) (out *distv1.NodeOutcome, retryable, dead bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+distv1.PathRun, bytes.NewReader(body))
	if err != nil {
		return nil, false, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		// Connection-level failure: the worker is unreachable or died
		// mid-request. Indict the worker and retry elsewhere.
		return nil, true, true, fmt.Errorf("dist: worker %s: %w", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, true, fmt.Errorf("dist: worker %s: read response: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		var env distv1.ErrorEnvelope
		msg := string(data)
		if jerr := json.Unmarshal(data, &env); jerr == nil && env.Error.Message != "" {
			msg = env.Error.Message
		}
		err := fmt.Errorf("dist: worker %s: HTTP %d: %s", url, resp.StatusCode, msg)
		// 4xx means the worker understood us and rejected the spec —
		// another worker would reject it identically, so fail the node.
		// 5xx is a worker-side execution failure worth retrying
		// elsewhere, but the worker answered coherently: not dead.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, false, false, err
		}
		return nil, true, false, err
	}
	var no distv1.NodeOutcome
	if err := json.Unmarshal(data, &no); err != nil {
		return nil, true, true, fmt.Errorf("dist: worker %s: decode outcome: %w", url, err)
	}
	if no.Schema != distv1.Schema {
		return nil, false, false, fmt.Errorf("dist: worker %s: outcome schema %q, want %q", url, no.Schema, distv1.Schema)
	}
	return &no, false, false, nil
}
