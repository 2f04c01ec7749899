package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	distv1 "rooftune/dist/v1"
	"rooftune/internal/parallel"
	"rooftune/internal/serve/cache"
	"rooftune/internal/serve/campaign"
	"rooftune/internal/serve/metrics"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Name identifies this worker on heartbeats and outcome provenance
	// ("" is allowed but unhelpful in a fleet).
	Name string
	// Parallelism is the host-parallelism capacity the worker reports on
	// heartbeats and as roofdist_worker_capacity (<=0: GOMAXPROCS). It
	// advertises the host to the fleet; each node itself runs one sweep,
	// evaluating its cases serially.
	Parallelism int
	// CacheEntries bounds the completed-node cache that makes dispatch
	// idempotent, and the in-memory memo of campaign fingerprints (<=0:
	// the cache default, 256). Entries are small (one wire outcome or
	// one fingerprint each); evicting one only costs a re-measure or a
	// re-resolve.
	CacheEntries int
}

// runningNode is one node currently executing: duplicate dispatches of
// the same fingerprint join it instead of re-measuring. out/status are
// written before done is closed and read only after it — the close is
// the happens-before edge, no lock needed.
type runningNode struct {
	done   chan struct{}
	out    []byte
	status int
}

// Worker executes dist/v1 node specs: it resolves the wire campaign
// through the same resolution path the coordinator fingerprinted
// (internal/serve/campaign), verifies the node fingerprint, and runs
// the node on the campaign's session. The node specs of one campaign
// carry identical campaign bytes, so the resolver's memo fingerprints a
// campaign once per worker, and a session is built only for a node the
// worker actually measures.
// Completion is idempotent: a running fingerprint is joined, a
// completed one is answered from the cache — so requeued, duplicated
// or replayed dispatches (including after a coordinator restart) cost
// no extra measurement.
type Worker struct {
	base     context.Context
	name     string
	capacity int

	// mu makes "completed, running or new" one decision: handleRun checks
	// done then running under it, and execute stores into done before
	// deleting from running under it, so a replay arriving as a node
	// finishes is answered without re-measuring.
	mu      sync.Mutex
	running map[string]*runningNode
	// done is the completed-node store (fingerprint -> wire outcome),
	// the same LRU implementation the serving tier caches Results in.
	done      *cache.Cache
	campaigns *campaign.Resolver

	metrics     *metrics.Set
	nodesRun    atomic.Uint64
	dedupeHits  atomic.Uint64
	nodeSeconds *metrics.Histogram
}

// NewWorker builds a worker bound to base: cancel base on shutdown and
// in-flight nodes abort between kernel executions.
func NewWorker(base context.Context, cfg WorkerConfig) *Worker {
	if base == nil {
		base = context.Background()
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = parallel.DefaultThreads()
	}
	// Without a persistence directory cache.New cannot fail.
	done, _ := cache.New(cache.Config{MaxEntries: cfg.CacheEntries})
	w := &Worker{
		base:      base,
		name:      cfg.Name,
		capacity:  cfg.Parallelism,
		running:   make(map[string]*runningNode),
		done:      done,
		campaigns: campaign.NewResolver(cfg.CacheEntries),
		metrics:   metrics.NewSet(),
	}
	w.metrics.CounterFunc("roofdist_worker_nodes_total", "",
		"Node specs measured on this worker (cache hits excluded).",
		w.nodesRun.Load)
	w.metrics.CounterFunc("roofdist_worker_dedupe_hits_total", "",
		"Dispatches answered by joining a running node or the completed-node cache.",
		w.dedupeHits.Load)
	w.metrics.GaugeFunc("roofdist_worker_running", "",
		"Nodes currently executing.",
		func() float64 { return float64(w.runningCount()) })
	w.metrics.GaugeFunc("roofdist_worker_capacity", "",
		"Host-parallelism capacity this worker advertises.",
		func() float64 { return float64(w.capacity) })
	w.nodeSeconds = w.metrics.Histogram("roofdist_worker_node_seconds",
		"Wall time measuring one node spec.",
		[]float64{0.01, 0.05, 0.25, 1, 5, 30, 120})
	return w
}

// Handler mounts the worker's routes: the dist/v1 contract plus the
// standard metrics plane.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(distv1.PathRun, w.handleRun)
	mux.HandleFunc(distv1.PathHealth, w.handleHealth)
	mux.Handle("/metrics", w.metrics)
	return mux
}

func (w *Worker) runningCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.running)
}

// maxBodyBytes caps a request body on the worker's POST route. A node
// spec carries one campaign of a few hundred bytes; the cap keeps a
// client from making the worker buffer an unbounded body.
const maxBodyBytes = 1 << 20

// writeError renders the dist/v1 error envelope.
func writeError(rw http.ResponseWriter, status int, code distv1.ErrorCode, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(distv1.ErrorEnvelope{
		Error: distv1.Error{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// respond writes a completed outcome's bytes with the worker's
// provenance headers.
func (w *Worker) respond(rw http.ResponseWriter, status int, fp string, dedupe bool, body []byte) {
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set(distv1.WorkerHeader, w.name)
	rw.Header().Set(distv1.NodeHeader, fp)
	if dedupe {
		rw.Header().Set(distv1.DedupeHeader, "hit")
	} else {
		rw.Header().Set(distv1.DedupeHeader, "miss")
	}
	rw.WriteHeader(status)
	_, _ = rw.Write(body)
}

// handleRun executes one node spec (POST /dist/v1/run). The run is
// bounded by the worker's base context, not the request's: a
// coordinator that disconnects (lease requeue, coordinator restart)
// must not waste the measurement — the node finishes and lands in the
// completed cache, so the replay answers instantly.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, distv1.CodeBadRequest, "POST only")
		return
	}
	spec, err := distv1.ParseNodeSpec(http.MaxBytesReader(rw, r.Body, maxBodyBytes))
	if err != nil {
		writeError(rw, http.StatusBadRequest, distv1.CodeBadRequest, "%v", err)
		return
	}

	// Resolve the campaign through the shared resolution path and
	// verify the fingerprint: a mismatch means this worker would
	// measure a different session than the coordinator addressed, and
	// running it would poison the sweep with a wrong-but-plausible
	// outcome. Campaign bytes this worker has resolved before are
	// fingerprinted from the memo, with no session built (run is nil).
	campFP, run, err := w.campaigns.Resolve(spec.Campaign)
	if err != nil {
		writeError(rw, http.StatusBadRequest, distv1.CodeBadNode, "campaign: %v", err)
		return
	}
	want := distv1.NodeFingerprint(campFP, spec.NodeID, spec.SeedValue)
	if spec.Fingerprint != want {
		writeError(rw, http.StatusBadRequest, distv1.CodeBadNode,
			"node fingerprint mismatch: spec %s, resolved %s — coordinator and worker resolve this campaign differently",
			spec.Fingerprint, want)
		return
	}

	// Idempotent completion: answer from the cache, join a running
	// node, or claim the fingerprint and measure.
	w.mu.Lock()
	if cached, ok := w.done.Get(want); ok {
		w.mu.Unlock()
		w.dedupeHits.Add(1)
		w.respond(rw, http.StatusOK, want, true, cached)
		return
	}
	if rn, ok := w.running[want]; ok {
		w.mu.Unlock()
		w.dedupeHits.Add(1)
		select {
		case <-rn.done:
			w.respond(rw, rn.status, want, true, rn.out)
		case <-r.Context().Done():
		case <-w.base.Done():
			writeError(rw, http.StatusServiceUnavailable, distv1.CodeNodeFailed, "worker shutting down")
		}
		return
	}
	rn := &runningNode{done: make(chan struct{})}
	w.running[want] = rn
	w.mu.Unlock()

	w.execute(rn, run, spec, want)
	w.respond(rw, rn.status, want, false, rn.out)
}

// execute measures the claimed node and publishes its terminal state:
// out/status filled, the outcome stored in the completed cache
// (successes only — failures are transient) before the fingerprint
// leaves running, done closed last so joiners observe a fully-written
// result. It runs the node on the session handleRun built, or, when the
// campaign was fingerprinted from the memo (run is nil), builds it now.
func (w *Worker) execute(rn *runningNode, run *campaign.Resolved, spec distv1.NodeSpec, fp string) {
	var out *distv1.NodeOutcome
	var err error
	if run == nil {
		run, err = campaign.Build(spec.Campaign)
	}
	if err == nil {
		start := time.Now()
		out, err = run.Session.RunNode(w.base, spec.NodeID, spec.SeedValue)
		w.nodeSeconds.Observe(time.Since(start).Seconds())
	}

	var body []byte
	if err == nil {
		out.Worker = w.name
		out.Fingerprint = fp
		body, err = json.Marshal(out)
	}
	status := http.StatusOK
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(distv1.ErrorEnvelope{Error: distv1.Error{Code: distv1.CodeNodeFailed, Message: err.Error()}})
	} else {
		w.nodesRun.Add(1)
	}
	rn.out = body
	rn.status = status

	w.mu.Lock()
	if status == http.StatusOK {
		// A node fingerprint is a hex SHA-256, the store's key shape,
		// and body is never empty, so Put cannot fail here.
		_, _ = w.done.Put(fp, body, 0)
	}
	delete(w.running, fp)
	w.mu.Unlock()
	close(rn.done)
}

// handleHealth is the enrollment heartbeat (GET /dist/v1/healthz).
func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(rw, http.StatusMethodNotAllowed, distv1.CodeBadRequest, "GET only")
		return
	}
	hb := distv1.Heartbeat{
		Schema:   distv1.Schema,
		Worker:   w.name,
		Running:  w.runningCount(),
		Capacity: w.capacity,
		NodesRun: w.nodesRun.Load(),
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(hb)
}
