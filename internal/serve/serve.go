// Package serve is the rooftune daemon: a long-lived HTTP service that
// accepts JSON campaign specs, resolves them through the same Session
// machinery the library exposes, and memoizes every completed Result in
// a content-addressed cache keyed by the session fingerprint.
//
// The contract that makes the cache sound is determinism: served
// campaigns target simulated systems only, and every sweep evaluates its
// cases serially, so a campaign's Result is a pure function of its
// fingerprint and a cache hit is byte-for-byte the response a fresh run
// would have produced — with zero kernel executions. Native targets are
// rejected: wall-clock measurements are not content-addressable (the
// same campaign legitimately yields different numbers run to run).
//
// Concurrent identical submissions collapse onto one run (singleflight
// via the jobs registry), concurrent distinct campaigns divide the host
// under a shared parallelism budget instead of each assuming the whole
// machine, and an admission controller bounds how many runs execute and
// wait at once — excess load is shed deterministically with 429 +
// Retry-After rather than queued without bound.
//
// With workers configured (Config.Workers), the daemon additionally
// runs as the distributed tier's coordinator: cache and admission stay
// in front, but each admitted campaign's plan-graph nodes fan out to
// roofworkerd processes over the rooftune/dist/v1 contract, with
// lease-based requeue from dead or slow workers and graceful local
// fallback — see internal/dist.
//
// The wire contract itself (Campaign, JobStatus, the headers, the error
// envelope) lives in the versioned rooftune/serve/v1 package, and
// resolving a wire campaign into session options lives in
// internal/serve/campaign (shared with the distributed workers); this
// package owns the daemon behaviour.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"rooftune"
	"rooftune/internal/dist"
	"rooftune/internal/serve/admit"
	"rooftune/internal/serve/budget"
	"rooftune/internal/serve/cache"
	"rooftune/internal/serve/campaign"
	"rooftune/internal/serve/jobs"
	"rooftune/internal/serve/metrics"
	servev1 "rooftune/serve/v1"
)

// Config configures a Server.
type Config struct {
	// CacheEntries bounds the result cache (<=0: the cache default).
	CacheEntries int
	// CacheDir, if set, persists cache entries across daemon restarts.
	CacheDir string
	// CacheTTL bounds every cache entry's lifetime (<=0: entries never
	// expire). Disk-persisted entries honor the TTL across restarts.
	CacheTTL time.Duration
	// CacheMinRun is the cache admission floor: results measured in less
	// than this are not cached — they are cheaper to recompute than to
	// hold an eviction slot (<=0: everything is cached).
	CacheMinRun time.Duration
	// Parallelism is the host-parallelism capacity divided among
	// concurrent runs (<=0: GOMAXPROCS).
	Parallelism int
	// MaxJobs bounds concurrently running jobs (<=0: unlimited, which
	// also disables queuing and shedding).
	MaxJobs int
	// QueueDepth bounds how many admitted jobs may wait for a run slot
	// across all clients; beyond it requests are shed with 429 (<=0 with
	// MaxJobs set: no queue — every excess request is shed).
	QueueDepth int
	// PerClientQueue bounds the queue share of any one client (keyed by
	// servev1.ClientHeader, falling back to the remote address), so one
	// flood cannot fill the whole queue (<=0: only QueueDepth bounds it).
	PerClientQueue int
	// RetryAfter is the hint carried on every shed response (<=0: 1s).
	// It is fixed configuration, not an estimate, so tests and clients
	// can rely on exact values.
	RetryAfter time.Duration
	// Workers lists roofworkerd base URLs. When non-empty the daemon
	// runs as the distributed tier's coordinator: cache and admission
	// stay in front, but each admitted campaign's plan-graph nodes fan
	// out to the fleet over the rooftune/dist/v1 contract, with
	// lease-based requeue and graceful local fallback (see
	// internal/dist).
	Workers []string
	// WorkerHeartbeat is the fleet health-probe interval (<=0: 2s).
	WorkerHeartbeat time.Duration
	// WorkerLease bounds how long one node dispatch may stay unanswered
	// before it is requeued to another worker (<=0: 60s).
	WorkerLease time.Duration
}

// Server is the daemon: routing, the job registry, the result cache,
// the admission controller, the shared host budget and the metrics
// plane. Construct with New, mount via Handler, and cancel the context
// passed to New to abort every in-flight run on shutdown.
type Server struct {
	base    context.Context
	cfg     Config
	cache   *cache.Cache
	reg     *jobs.Registry
	budget  *budget.Budget
	adm     *admit.Controller
	metrics *metrics.Set
	dist    *dist.Coordinator // nil unless Config.Workers is set
}

// New builds a Server. base bounds every job the daemon starts: cancel
// it on shutdown and in-flight runs abort between kernel executions.
func New(base context.Context, cfg Config) (*Server, error) {
	if base == nil {
		base = context.Background()
	}
	c, err := cache.New(cache.Config{
		MaxEntries: cfg.CacheEntries,
		Dir:        cfg.CacheDir,
		TTL:        cfg.CacheTTL,
		MinCost:    cfg.CacheMinRun,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		base:    base,
		cfg:     cfg,
		cache:   c,
		reg:     jobs.NewRegistry(),
		budget:  budget.New(cfg.Parallelism),
		metrics: metrics.NewSet(),
	}
	waitHist := s.metrics.Histogram("roofserve_admission_wait_seconds",
		"Time admitted jobs spent queued for a run slot.",
		[]float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30})
	s.adm = admit.New(admit.Config{
		MaxJobs:    cfg.MaxJobs,
		QueueDepth: cfg.QueueDepth,
		PerClient:  cfg.PerClientQueue,
		RetryAfter: cfg.RetryAfter,
	}, func(wait time.Duration) { waitHist.Observe(wait.Seconds()) })
	s.registerMetrics()
	if len(cfg.Workers) > 0 {
		s.dist = dist.NewCoordinator(dist.Config{
			Workers:   cfg.Workers,
			Heartbeat: cfg.WorkerHeartbeat,
			Lease:     cfg.WorkerLease,
			Metrics:   s.metrics,
		})
		s.dist.Start(base)
	}
	return s, nil
}

// registerMetrics wires the pull side of the metrics plane: every gauge
// and counter below reads its component's own accounting at scrape
// time, so /metrics reconciles exactly with /v1/stats and with the
// cache headers the daemon sent.
func (s *Server) registerMetrics() {
	m := s.metrics
	m.CounterFunc("roofserve_cache_hits_total", "",
		"Lookups answered from the content-addressed result cache.",
		func() uint64 { return s.cache.Stats().Hits })
	m.CounterFunc("roofserve_cache_misses_total", "",
		"Lookups that required a fresh measurement (TTL expiries included).",
		func() uint64 { return s.cache.Stats().Misses })
	m.CounterFunc("roofserve_cache_evictions_total", "",
		"Entries evicted by the LRU bound.",
		func() uint64 { return s.cache.Stats().Evictions })
	m.CounterFunc("roofserve_cache_expired_total", "",
		"Lookups that found only a TTL-expired entry.",
		func() uint64 { return s.cache.Stats().Expired })
	m.CounterFunc("roofserve_cache_rejected_total", "",
		"Results refused by the cache admission floor (cheaper to recompute).",
		func() uint64 { return s.cache.Stats().Rejected })
	m.GaugeFunc("roofserve_cache_entries", "",
		"Resident cache entries.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	for _, st := range []jobs.State{jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateShed} {
		st := st
		m.GaugeFunc("roofserve_jobs", fmt.Sprintf("state=%q", string(st)),
			"Jobs the registry remembers, by lifecycle state.",
			func() float64 { return float64(s.reg.StateCounts()[st]) })
	}
	m.GaugeFunc("roofserve_job_watchers", "",
		"Connected consumers (synchronous waits and SSE streams) across all jobs.",
		func() float64 { return float64(s.reg.Watchers()) })
	m.CounterFunc("roofserve_admission_granted_total", "",
		"Admissions that obtained a run slot (immediately or after queuing).",
		func() uint64 { return s.adm.Stats().Granted })
	m.CounterFunc("roofserve_admission_shed_total", `reason="queue_full"`,
		"Requests shed by admission control, by reason.",
		func() uint64 { return s.adm.Stats().ShedQueueFull })
	m.CounterFunc("roofserve_admission_shed_total", `reason="client_quota"`,
		"Requests shed by admission control, by reason.",
		func() uint64 { return s.adm.Stats().ShedClientQuota })
	m.GaugeFunc("roofserve_admission_queue_depth", "",
		"Admitted jobs currently waiting for a run slot.",
		func() float64 { return float64(s.adm.Stats().Queued) })
	m.GaugeFunc("roofserve_budget_capacity", "",
		"Host-parallelism capacity divided among concurrent runs.",
		func() float64 { return float64(s.budget.Capacity()) })
	m.GaugeFunc("roofserve_budget_active", "",
		"Outstanding host-parallelism leases.",
		func() float64 { return float64(s.budget.Active()) })
	m.CounterFunc("roofserve_budget_contended_total", "",
		"Lease acquisitions that shared the host with other active runs.",
		func() uint64 { return s.budget.Contended() })
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/tune            submit a campaign, wait, return the Result
//	POST   /v1/jobs            submit a campaign, return a job handle
//	GET    /v1/jobs/{id}        job status (+ Result when done)
//	GET    /v1/jobs/{id}/events SSE stream of the job's progress events
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/healthz          liveness
//	GET    /v1/stats            cache / admission / budget / registry counters
//	GET    /metrics             Prometheus text-format exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tune", s.handleTune)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.metrics)
	return mux
}

// clientID keys per-client fair queuing: the servev1.ClientHeader when
// the client identifies itself, else the connection's remote host, else
// a shared anonymous bucket.
func clientID(r *http.Request) string {
	if id := r.Header.Get(servev1.ClientHeader); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return host
	}
	if r.RemoteAddr != "" {
		return r.RemoteAddr
	}
	return "anonymous"
}

// resolve parses a campaign and computes its fingerprint — the cache
// key and singleflight identity. The throwaway session exists only to
// fingerprint; each run builds its own (a Session executes one Run at a
// time, and the run's session carries the job's progress hook and
// budget lease). The parsed wire campaign rides along because in
// coordinator mode it crosses to the workers verbatim, addressed by
// this same key.
func (s *Server) resolve(r *http.Request) (key string, camp servev1.Campaign, opts []rooftune.Option, err error) {
	camp, err = campaign.Parse(r.Body)
	if err != nil {
		return "", camp, nil, err
	}
	opts, err = campaign.Options(camp)
	if err != nil {
		return "", camp, nil, err
	}
	sess, err := rooftune.New(opts...)
	if err != nil {
		return "", camp, nil, fmt.Errorf("serve: invalid campaign: %w", err)
	}
	key, err = sess.Fingerprint()
	if err != nil {
		return "", camp, nil, fmt.Errorf("serve: fingerprint: %w", err)
	}
	return key, camp, opts, nil
}

// launch returns the in-flight job for the fingerprint, starting a run
// if none exists. Exactly one concurrent caller per fingerprint passes
// admission and starts a run; the rest join whatever admission decided
// — including a shed (an identical flood costs one admission slot, not
// N). A shed job is terminal immediately, so every joiner observes the
// refusal and a later resubmission gets a fresh admission attempt.
func (s *Server) launch(key, client string, camp servev1.Campaign, opts []rooftune.Option) *jobs.Job {
	job, created := s.reg.GetOrCreate(key)
	if !created {
		return job
	}
	ticket, err := s.adm.Admit(client)
	if err != nil {
		var shed *admit.ShedError
		if errors.As(err, &shed) {
			job.Shed(shed.RetryAfter)
		} else {
			job.Fail(fmt.Errorf("serve: job %s: admission: %w", job.ID, err))
		}
		return job
	}
	ctx, cancel := context.WithCancel(s.base)
	// Arm before the goroutine runs: a job cancelled while it waits in
	// the admission queue must release its ticket, not its run.
	job.Arm(cancel)
	//rooflint:allow nogoroutine -- job executor; bounded by s.base, joined by job.Wait/terminal state before anyone reads the result
	go s.run(ctx, cancel, job, ticket, camp, opts)
	return job
}

// run executes one job: wait out the admission queue, move the job to
// running, acquire a host-budget lease, build the job's session
// (progress wired to the job's event history, host parallelism capped
// to the lease's share), run it locally or through the fleet, serialize,
// cache, finish.
func (s *Server) run(ctx context.Context, cancel context.CancelFunc, job *jobs.Job, ticket *admit.Ticket, camp servev1.Campaign, opts []rooftune.Option) {
	defer cancel()
	if err := ticket.Wait(ctx); err != nil {
		job.Fail(fmt.Errorf("serve: job %s: cancelled while queued: %w", job.ID, err))
		return
	}
	defer ticket.Release()
	job.Start(cancel)
	lease := s.budget.Acquire()
	defer lease.Release()
	started := time.Now()
	sess, err := rooftune.New(append(opts,
		rooftune.WithHostParallelism(lease.Share()),
		rooftune.WithProgress(job.Emit),
	)...)
	if err != nil {
		job.Fail(fmt.Errorf("serve: job %s: %w", job.ID, err))
		return
	}
	var res *rooftune.Result
	if s.dist != nil {
		// Coordinator mode: the campaign's plan-graph nodes fan out to
		// the worker fleet. Neither the lease share nor the progress
		// hook enters the fingerprint, so job.Key addresses the same
		// content on the workers as in the cache; nodes that cannot be
		// placed remotely run locally inside the same schedule.
		res, err = sess.RunDist(ctx, s.dist.Exec(camp, job.Key))
	} else {
		res, err = sess.Run(ctx)
	}
	if err != nil {
		job.Fail(fmt.Errorf("serve: job %s: %w", job.ID, err))
		return
	}
	cost := time.Since(started)
	data, err := json.Marshal(res)
	if err != nil {
		job.Fail(fmt.Errorf("serve: job %s: serialize: %w", job.ID, err))
		return
	}
	if _, err := s.cache.Put(job.Key, data, cost); err != nil {
		// The run still succeeded; an uncacheable result is the job's
		// problem to report, not to hide. (A MinCost rejection is not an
		// error — the result simply is not worth a cache slot.)
		job.Fail(fmt.Errorf("serve: job %s: cache: %w", job.ID, err))
		return
	}
	job.Finish(data, false)
}

// handleTune is the synchronous path: answer from the cache if the
// fingerprint is stored (bytes verbatim — this is the byte-identity
// guarantee), otherwise run (or join) the campaign and wait. A client
// that disconnects while waiting releases its watch; if it was the last
// watcher, the run is cancelled.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	key, camp, opts, err := s.resolve(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, servev1.CodeBadCampaign, err, 0)
		return
	}
	w.Header().Set(servev1.FingerprintHeader, key)
	if data, ok := s.cache.Get(key); ok {
		writeResult(w, data, true)
		return
	}
	job := s.launch(key, clientID(r), camp, opts)
	w.Header().Set(servev1.JobHeader, job.ID)
	job.AddWatcher()
	defer job.RemoveWatcher()
	if err := job.Wait(r.Context()); err != nil {
		// The client is gone; nobody will read this, but be well-formed.
		writeError(w, 499, servev1.CodeClientClosed, fmt.Errorf("serve: client closed request: %w", err), 0)
		return
	}
	snap := job.Snapshot()
	switch snap.State {
	case jobs.StateShed:
		writeError(w, http.StatusTooManyRequests, servev1.CodeOverloaded,
			errors.New("serve: overloaded: admission refused, retry later"), snap.RetryAfter)
	case jobs.StateFailed:
		writeError(w, http.StatusInternalServerError, servev1.CodeJobFailed, errors.New(snap.Err), 0)
	default:
		writeResult(w, snap.Result, snap.Cached)
	}
}

// statusOf renders a registry snapshot as the versioned wire status.
func statusOf(snap jobs.Snapshot) servev1.JobStatus {
	st := servev1.JobStatus{
		ID:                snap.ID,
		Fingerprint:       snap.Key,
		State:             servev1.State(snap.State),
		Cached:            snap.Cached,
		Events:            snap.Events,
		Error:             snap.Err,
		RetryAfterSeconds: retrySeconds(snap.RetryAfter),
	}
	if snap.State == jobs.StateDone {
		st.Result = snap.Result
	}
	return st
}

// handleSubmit is the asynchronous path: the job is pinned (its client
// polls; holding no connection is its normal state) and the response is
// its handle. A cache hit mints an already-done job so clients have one
// uniform flow; a shed admission answers 429 like the synchronous path.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	key, camp, opts, err := s.resolve(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, servev1.CodeBadCampaign, err, 0)
		return
	}
	w.Header().Set(servev1.FingerprintHeader, key)
	if data, ok := s.cache.Get(key); ok {
		job, created := s.reg.GetOrCreate(key)
		job.Pin()
		if created {
			job.Start(func() {})
			job.Finish(data, true)
		}
		w.Header().Set(servev1.JobHeader, job.ID)
		writeJSON(w, http.StatusOK, statusOf(job.Snapshot()))
		return
	}
	job := s.launch(key, clientID(r), camp, opts)
	job.Pin()
	w.Header().Set(servev1.JobHeader, job.ID)
	snap := job.Snapshot()
	if snap.State == jobs.StateShed {
		writeError(w, http.StatusTooManyRequests, servev1.CodeOverloaded,
			errors.New("serve: overloaded: admission refused, retry later"), snap.RetryAfter)
		return
	}
	writeJSON(w, http.StatusAccepted, statusOf(snap))
}

// job looks up the request's {id} job, answering 404 when it is unknown.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	job, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, servev1.CodeNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")), 0)
	}
	return job, ok
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, statusOf(job.Snapshot()))
}

// handleJobEvents streams the job's progress events as SSE: the full
// recorded history replays first (a late subscriber misses nothing),
// then each new event is pushed as it is emitted, and a final "end"
// event carries the terminal state. The stream counts as a watcher:
// disconnecting the last watcher of an unpinned job cancels it.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, servev1.CodeInternal, fmt.Errorf("serve: response writer cannot stream"), 0)
		return
	}
	job.AddWatcher()
	defer job.RemoveWatcher()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set(servev1.JobHeader, job.ID)
	h.Set(servev1.FingerprintHeader, job.Key)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	cursor := 0
	for {
		evs, terminal, notify := job.EventsSince(cursor)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return // an unencodable event ends the stream, not the job
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
		}
		if len(evs) > 0 {
			cursor += len(evs)
			flusher.Flush()
		}
		if terminal {
			snap := job.Snapshot()
			fmt.Fprintf(w, "event: end\ndata: {\"state\":%q}\n\n", snap.State)
			flusher.Flush()
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, statusOf(job.Snapshot()))
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats := map[string]any{
		"cache":     s.cache.Stats(),
		"admission": s.adm.Stats(),
		"budget": map[string]any{
			"capacity":  s.budget.Capacity(),
			"active":    s.budget.Active(),
			"contended": s.budget.Contended(),
		},
		"jobs": map[string]int{
			"total":  s.reg.Len(),
			"active": s.reg.Active(),
		},
	}
	if s.dist != nil {
		live, dead := s.dist.Workers()
		stats["dist"] = map[string]any{
			"workers_live": live,
			"workers_dead": dead,
			"dispatch":     s.dist.Stats(),
		}
	}
	writeJSON(w, http.StatusOK, stats)
}

// writeResult writes serialized Result bytes verbatim, tagging the
// cache disposition in the header. The body is exactly the stored
// bytes on a hit — never re-decoded or re-encoded.
func writeResult(w http.ResponseWriter, data []byte, cached bool) {
	disposition := "miss"
	if cached {
		disposition = "hit"
	}
	w.Header().Set(servev1.CacheHeader, disposition)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// retrySeconds renders a retry hint in whole seconds, rounded up so the
// header never promises an earlier retry than the hint allows.
func retrySeconds(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int((d + time.Second - 1) / time.Second)
}

// writeError writes the versioned structured error envelope; a non-zero
// retryAfter additionally sets the standard Retry-After header.
func writeError(w http.ResponseWriter, code int, ec servev1.ErrorCode, err error, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	secs := retrySeconds(retryAfter)
	if secs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(servev1.ErrorEnvelope{Error: servev1.Error{
		Code:              ec,
		Message:           err.Error(),
		RetryAfterSeconds: secs,
	}})
}
