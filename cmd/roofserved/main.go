// Command roofserved is the rooftune tuning daemon: a long-lived HTTP
// service that runs simulated autotuning campaigns on demand and
// memoizes every completed Result in a content-addressed cache. A
// repeated campaign — same system, workloads, space, seed and budget —
// is answered from the cache byte-for-byte, with zero kernel
// executions, and a byte-identical repeat is keyed without building a
// session: the daemon remembers, in memory, the fingerprint it computed
// for each campaign body it has seen. Concurrent identical submissions
// collapse onto a single run.
//
// Production hardening is configuration: -max-jobs bounds concurrent
// runs, -queue-depth bounds how many admitted jobs may wait (excess
// load is shed with 429 + Retry-After and a structured error body),
// -per-client-queue keeps one client from filling the whole queue
// (clients identify themselves with the X-Roofserve-Client header),
// -cache-ttl / -cache-min-run bound how long and which results the
// cache keeps, and -cache-entries bounds both the result cache and the
// in-memory memo of campaign fingerprints. GET /metrics exposes the
// Prometheus text-format counters operators alert on.
//
// Endpoints (see the README "Serving" section for the campaign schema):
//
//	POST   /v1/tune             submit a campaign and wait for the Result
//	POST   /v1/jobs             submit asynchronously, poll the returned id
//	GET    /v1/jobs/{id}        job status (+ Result when done)
//	GET    /v1/jobs/{id}/events live progress as Server-Sent Events
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/healthz          liveness
//	GET    /v1/stats            cache / admission / job counters
//	GET    /metrics             Prometheus text-format exposition
//
// Examples:
//
//	roofserved                          # ephemeral port, in-memory cache
//	roofserved -addr :8080 -cache-dir /var/cache/roofserved
//	roofserved -max-jobs 2 -queue-depth 8 -retry-after 2s
//	roofserved -cache-ttl 24h -cache-min-run 50ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rooftune/internal/serve"
)

// splitWorkers parses the -workers flag: comma-separated base URLs,
// empty elements dropped, trailing slashes trimmed so path joining is
// uniform.
func splitWorkers(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			out = append(out, u)
		}
	}
	return out
}

func main() {
	var (
		addr           = flag.String("addr", "127.0.0.1:0", "listen address (host:port; port 0 picks a free port)")
		cacheEntries   = flag.Int("cache-entries", 0, "result-cache capacity in entries, also the bound of the in-memory campaign-fingerprint memo (0 = default 256)")
		cacheDir       = flag.String("cache-dir", "", "directory persisting cache entries across restarts (empty = in-memory only)")
		cacheTTL       = flag.Duration("cache-ttl", 0, "cache entry lifetime; persisted entries honor it across restarts (0 = never expire)")
		cacheMinRun    = flag.Duration("cache-min-run", 0, "cache admission floor: results measured faster than this are not cached (0 = cache everything)")
		maxJobs        = flag.Int("max-jobs", 0, "max concurrently running jobs (0 = unlimited, disables queuing and shedding)")
		queueDepth     = flag.Int("queue-depth", 0, "max admitted jobs waiting for a run slot; excess requests are shed with 429")
		perClientQueue = flag.Int("per-client-queue", 0, "max queue slots any one client may hold (0 = only -queue-depth bounds it)")
		retryAfter     = flag.Duration("retry-after", 0, "Retry-After hint on shed responses (0 = 1s)")
		workers        = flag.String("workers", "", "comma-separated roofworkerd base URLs; non-empty runs the daemon as the distributed coordinator")
		workerHB       = flag.Duration("worker-heartbeat", 0, "worker health-probe interval (0 = 2s)")
		workerLease    = flag.Duration("worker-lease", 0, "how long one node dispatch may stay unanswered before requeue (0 = 60s)")
	)
	flag.Parse()

	// base bounds every tuning run the daemon starts: cancelling it on
	// shutdown aborts in-flight sweeps between kernel executions.
	base, cancelRuns := context.WithCancel(context.Background())
	defer cancelRuns()

	srv, err := serve.New(base, serve.Config{
		CacheEntries:    *cacheEntries,
		CacheDir:        *cacheDir,
		CacheTTL:        *cacheTTL,
		CacheMinRun:     *cacheMinRun,
		MaxJobs:         *maxJobs,
		QueueDepth:      *queueDepth,
		PerClientQueue:  *perClientQueue,
		RetryAfter:      *retryAfter,
		Workers:         splitWorkers(*workers),
		WorkerHeartbeat: *workerHB,
		WorkerLease:     *workerLease,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "roofserved:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roofserved:", err)
		os.Exit(1)
	}
	// The resolved address goes to stdout on its own line so scripts can
	// capture the ephemeral port (the serve-smoke CI job does).
	fmt.Printf("roofserved listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	//rooflint:allow nogoroutine -- http.Serve lives for the process; joined via errc after Shutdown below
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting, let handlers drain briefly,
		// then abort any still-running sweeps.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			cancelRuns()
			_ = httpSrv.Close()
		}
		cancelRuns()
		<-errc
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "roofserved:", err)
			os.Exit(1)
		}
	}
}
