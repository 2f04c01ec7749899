// Package dist is the distributed sweep tier: a coordinator that fans a
// campaign's plan-graph nodes out to remote worker processes over the
// versioned rooftune/dist/v1 contract, and the worker server that
// executes them.
//
// The design premise is that RunPlan already has the right shape for
// distribution — a topological schedule with seed edges and
// per-outcome provenance — so the coordinator does not reimplement it:
// the daemon's Session.RunDist executes the normal plan schedule and
// delegates each ready node to the coordinator's dispatch hook
// (Coordinator.Exec) with exactly the seed a local run would have
// applied. A dependent node is
// therefore dispatched only after its dependency's measured winner
// arrived, and the merged Result — winners, warnings, search-cost
// accounting, Summary — is byte-identical to a local RunPlan's.
//
// Robustness is structural rather than best-effort:
//
//   - Workers enroll via heartbeat (Pool); a worker that stops
//     answering is marked dead and receives no new nodes.
//   - Nodes are placed by node fingerprint (distv1.NodeFingerprint):
//     rendezvous hashing over the live workers, so every coordinator,
//     a restarted one included, sends a node to the same worker.
//   - Every dispatch carries a lease. A node still unanswered when the
//     lease expires is requeued to its next-ranked live worker without
//     cancelling the first attempt — the slow worker may yet answer.
//   - Dispatch is idempotent by node fingerprint: each worker keeps its
//     completions in the serving tier's LRU store (internal/serve/cache)
//     and joins duplicates of a running node, so a requeued or replayed
//     node re-measures nothing, and duplicate completions dedupe on the
//     coordinator (first answer wins, the rest are counted and dropped).
//   - Incumbent bounds are shared asynchronously mid-sweep using the
//     monotone CAS-max protocol (rooftune.SharedBound), which is
//     order-insensitive — late, duplicate or reordered pushes are
//     harmless by construction.
//   - When no live worker remains, nodes fall back to local execution
//     (rooftune.ErrExecLocal), so a coordinator with a dead fleet
//     degrades to exactly the single-process daemon.
package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"time"

	distv1 "rooftune/dist/v1"
)

// workerState is a pool member's health as of the last probe.
type workerState int

const (
	// workerUnknown: never successfully probed yet.
	workerUnknown workerState = iota
	// workerLive: the last health probe answered.
	workerLive
	// workerDead: the last health probe (or a dispatch) failed.
	workerDead
)

// workerRef is one enrolled worker. All fields are guarded by Pool.mu.
type workerRef struct {
	url   string
	name  string // self-reported on the last successful probe
	state workerState
}

// Pool tracks the worker fleet: a fixed URL set enrolled and
// health-checked via the dist/v1 heartbeat. Dispatch places each node
// by its fingerprint (rendezvous hashing, see pick); a failed probe or
// dispatch marks the worker dead until a later probe revives it.
type Pool struct {
	client    *http.Client
	heartbeat time.Duration

	mu      sync.Mutex
	workers []*workerRef
}

// NewPool builds a pool over the worker URLs. heartbeat is the probe
// interval (<=0: 2s); client is the HTTP client probes and dispatches
// share (nil: http.DefaultClient — the pool relies on per-request
// contexts, not a client-wide timeout, because node runs are
// long-polls).
func NewPool(urls []string, heartbeat time.Duration, client *http.Client) *Pool {
	if heartbeat <= 0 {
		heartbeat = 2 * time.Second
	}
	if client == nil {
		client = http.DefaultClient
	}
	p := &Pool{client: client, heartbeat: heartbeat}
	for _, u := range urls {
		p.workers = append(p.workers, &workerRef{url: u})
	}
	return p
}

// Start launches the heartbeat loop: an immediate probe of every
// worker, then one sweep per interval until ctx is cancelled.
func (p *Pool) Start(ctx context.Context) {
	//rooflint:allow nogoroutine -- the pool's heartbeat prober; bounded by ctx (the daemon's base context) and holds no resources needing a join
	go func() {
		p.CheckNow(ctx)
		t := time.NewTicker(p.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.CheckNow(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
}

// CheckNow probes every worker once, concurrently, and updates the
// pool's view. It returns after every probe resolved, so callers (the
// daemon at startup, tests) can establish a fresh view synchronously.
func (p *Pool) CheckNow(ctx context.Context) {
	p.mu.Lock()
	urls := make([]string, len(p.workers))
	for i, w := range p.workers {
		urls[i] = w.url
	}
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		//rooflint:allow nogoroutine -- per-worker health probe; joined by wg.Wait below
		go func(u string) {
			defer wg.Done()
			hb, err := p.probe(ctx, u)
			p.mu.Lock()
			defer p.mu.Unlock()
			for _, w := range p.workers {
				if w.url != u {
					continue
				}
				if err != nil {
					w.state = workerDead
				} else {
					w.state = workerLive
					w.name = hb.Worker
				}
			}
		}(u)
	}
	wg.Wait()
}

// probe fetches one worker's heartbeat under a bounded deadline (the
// heartbeat interval), so a hung worker cannot stall the sweep.
func (p *Pool) probe(ctx context.Context, url string) (distv1.Heartbeat, error) {
	var hb distv1.Heartbeat
	ctx, cancel := context.WithTimeout(ctx, p.heartbeat)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+distv1.PathHealth, nil)
	if err != nil {
		return hb, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return hb, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return hb, fmt.Errorf("dist: worker %s health: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		return hb, fmt.Errorf("dist: worker %s health: %w", url, err)
	}
	return hb, nil
}

// pick places the node with fingerprint fp: of the live workers not in
// exclude, the one with the highest rendezvous hash of (fp, URL). The
// ranking depends only on fp and the URL set, so every coordinator —
// including one restarted mid-campaign — sends a node to the same
// worker, whose completion cache then answers replays; a requeue moves
// the node to its next-ranked worker. ok is false when no live worker
// remains — the caller falls back to local execution.
func (p *Pool) pick(fp string, exclude map[string]bool) (url string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best uint64
	for _, w := range p.workers {
		if w.state != workerLive || exclude[w.url] {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(fp))
		h.Write([]byte{0})
		h.Write([]byte(w.url))
		if score := h.Sum64(); !ok || score > best || (score == best && w.url < url) {
			best, url, ok = score, w.url, true
		}
	}
	return url, ok
}

// markDead records a dispatch-observed failure: the worker receives no
// new nodes until a heartbeat revives it.
func (p *Pool) markDead(url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		if w.url == url {
			w.state = workerDead
		}
	}
}

// size is the enrolled fleet size (live or not) — the upper bound on
// attempts any one node can accumulate, since requeue never revisits a
// tried worker.
func (p *Pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Live counts workers the pool currently considers healthy.
func (p *Pool) Live() int { return p.count(workerLive) }

// Dead counts workers the pool currently considers failed (unknown,
// never-probed workers are neither live nor dead).
func (p *Pool) Dead() int { return p.count(workerDead) }

func (p *Pool) count(state workerState) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if w.state == state {
			n++
		}
	}
	return n
}
