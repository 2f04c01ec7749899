// Command roofworkerd is the rooftune distributed-sweep worker: a thin
// HTTP daemon that executes single plan-graph nodes on behalf of a
// coordinator (roofserved -workers, or any client of the rooftune
// dist/v1 contract).
//
// Each node spec carries the full wire campaign plus the node id and
// incumbent seed; the worker rebuilds the session through the same
// resolution path the coordinator fingerprinted, verifies the node
// fingerprint, and runs exactly that node with the library's normal
// Session machinery. Execution is idempotent by node fingerprint: a
// running node absorbs duplicate dispatches (they join and wait), and
// completed outcomes are cached so requeued or replayed dispatches —
// including after a coordinator restart — are answered instantly with
// zero kernel executions. Each node runs one sweep, evaluating its
// cases serially.
//
// Endpoints (see the README "Distributed sweeps" section):
//
//	POST /dist/v1/run      execute one node spec, long-poll the outcome
//	POST /dist/v1/bound    push a monotone incumbent bound to a running node
//	GET  /dist/v1/healthz  enrollment heartbeat (identity, load, capacity)
//	GET  /metrics          Prometheus text-format exposition
//
// Examples:
//
//	roofworkerd                          # ephemeral port
//	roofworkerd -addr :9090 -name w1     # fixed port, fleet identity
//	roofworkerd -parallelism 4           # advertise a capacity of 4
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
	"syscall"
	"time"

	"rooftune/internal/dist"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:0", "listen address (host:port; port 0 picks a free port)")
		name         = flag.String("name", "", "worker identity reported on heartbeats and outcomes (default: the listen address)")
		parallelism  = flag.Int("parallelism", 0, "host-parallelism capacity reported on heartbeats and metrics (0 = GOMAXPROCS)")
		cacheEntries = flag.Int("cache-entries", 0, "completed-node cache capacity in entries (0 = default 256)")
	)
	flag.Parse()

	// base bounds every node run the worker starts: cancelling it on
	// shutdown aborts in-flight measurements between kernel executions.
	base, cancelRuns := context.WithCancel(context.Background())
	defer cancelRuns()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roofworkerd:", err)
		os.Exit(1)
	}
	if *name == "" {
		*name = ln.Addr().String()
	}
	w := dist.NewWorker(base, dist.WorkerConfig{
		Name:         *name,
		Parallelism:  *parallelism,
		CacheEntries: *cacheEntries,
	})
	// The resolved address goes to stdout on its own line so scripts can
	// capture the ephemeral port (the dist-smoke CI job does).
	fmt.Printf("roofworkerd listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: w.Handler()}
	errc := make(chan error, 1)
	//rooflint:allow nogoroutine -- http.Serve lives for the process; joined via errc after Shutdown below
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting, let in-flight nodes drain
		// briefly, then abort any still-running measurements.
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
			fmt.Fprintln(os.Stderr, "roofworkerd:", err)
			os.Exit(1)
		}
	}
}
