package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rooftune"
	"rooftune/client"
	"rooftune/internal/serve/campaign"
	servev1 "rooftune/serve/v1"
)

// serve-fleet parameters, fixed so that runs are comparable.
const (
	warmPerSystem = 8    // warm campaigns per system: 40 of the cache's 256 entries
	openLoopRate  = 30.0 // phase-1 arrivals per second
	phase1Share   = 0.55 // share of the measured seconds spent in phase 1
	phase2Share   = 0.4  // share spent in phase 2
	lateLimit     = 250 * time.Millisecond
	replaySample  = 12 // fresh fleet results re-run in-process for byte identity
)

// request is one generated serve-fleet request.
type request struct {
	c     servev1.Campaign
	fresh bool // a fresh campaign, expected to miss; otherwise a warm one, expected to hit
	warm  int  // warm-set index of a warm request
}

// served is what the load generator saw of one request.
type served struct {
	req           request
	due, sent     time.Time
	done          time.Time
	cached        bool
	fingerprint   string
	body          []byte
	err           error
	temporaryFail bool
}

// mixSource draws the request mix: in every block of mixBlock requests
// exactly one, at a seeded position, is a fresh campaign on a seed never
// used before, taking the systems in turn; the rest are uniform over the
// warm set. An exact share keeps each run's miss count, and so where its
// tail percentile lands among the misses, independent of the seed.
type mixSource struct {
	rng     *rand.Rand
	taken   map[uint64]bool
	warm    []servev1.Campaign
	n, slot int // requests drawn; fresh position in the current block
	fresh   int // fresh requests drawn
}

const mixBlock = 10 // one fresh request in ten: a 10% miss share

func (m *mixSource) next() request {
	if m.n%mixBlock == 0 {
		m.slot = m.rng.IntN(mixBlock)
	}
	pos := m.n % mixBlock
	m.n++
	if pos == m.slot {
		sys := systems[m.fresh%len(systems)]
		m.fresh++
		seed := campaignSeeds(m.rng, 1, m.taken)[0]
		return request{c: prunedCampaign(sys, seed), fresh: true, warm: -1}
	}
	i := m.rng.IntN(len(m.warm))
	return request{c: m.warm[i], warm: i}
}

// runServeFleet is the serve-fleet workload: a roofserved coordinator
// with two roofworkerd workers on loopback, driven through the rooftune
// client with retries disabled. Set-up starts the fleet and fills the
// warm set; phase 1 is an open loop at openLoopRate with Poisson
// arrivals, phase 2 a closed loop on GOMAXPROCS connections, both on the
// same mix of warm hits and fresh misses.
func runServeFleet(ctx context.Context, o opts, r *report) error {
	rng := newRand(o.seed, 2)
	taken := map[uint64]bool{}
	var warm []servev1.Campaign
	for _, sys := range systems {
		for _, s := range campaignSeeds(rng, warmPerSystem, taken) {
			warm = append(warm, prunedCampaign(sys, s))
		}
	}
	conns := runtime.GOMAXPROCS(0)
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer hc.CloseIdleConnections()

	// Set-up, three times: the median is setup_s; the last fleet is
	// measured.
	var (
		fl       *fleet
		setups   []float64
		warmBody map[string][]byte // fingerprint to result bytes
		warmFP   []string
		warmRes  []*rooftune.Result
	)
	for k := range 3 {
		if fl != nil {
			fl.stop()
		}
		start := time.Now()
		var err error
		fl, err = startFleet(ctx, o.bin)
		if err != nil {
			return err
		}
		cl := client.New(fl.coord.url, client.WithRetries(0), client.WithHTTPClient(hc), client.WithClientID("perfbench"))
		warmBody, warmFP, warmRes, err = prefill(ctx, cl, warm, conns)
		if err != nil {
			fl.stop()
			return fmt.Errorf("set-up %d: %w", k+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer fl.stop()
	r.set("setup_s", median(setups))
	cl := client.New(fl.coord.url, client.WithRetries(0), client.WithHTTPClient(hc), client.WithClientID("perfbench"))

	searchS := 0.0
	var ceilings []float64
	for _, res := range warmRes {
		searchS += res.SearchTime.Seconds()
		ceilings = append(ceilings, dgemmCeiling(res)/1e9)
	}
	r.set("search_virtual_s", searchS)
	r.set("dgemm_gflops", median(ceilings))
	r.exact("search_virtual_s", "dgemm_gflops")

	mix := &mixSource{rng: newRand(o.seed, 4), taken: taken, warm: warm}
	bodies := &bodyStore{m: map[string][]byte{}}
	for fp, b := range warmBody {
		bodies.m[fp] = b
	}
	check := func(s *served) error {
		if s.err != nil {
			return s.err
		}
		if s.req.fresh == s.cached {
			return fmt.Errorf("fresh=%t request answered cached=%t", s.req.fresh, s.cached)
		}
		if !s.req.fresh && s.fingerprint != warmFP[s.req.warm] {
			return fmt.Errorf("warm campaign %d answered under fingerprint %s, want %s", s.req.warm, s.fingerprint, warmFP[s.req.warm])
		}
		return bodies.check(s.fingerprint, s.body, s.cached)
	}

	// Phase 1: open loop.
	p1 := time.Duration(float64(o.seconds) * phase1Share)
	var offsets []time.Duration
	var reqs []request
	for t := time.Duration(0); ; {
		t += time.Duration(mix.rng.ExpFloat64() / openLoopRate * float64(time.Second))
		if t >= p1 {
			break
		}
		offsets = append(offsets, t)
		reqs = append(reqs, mix.next())
	}
	before1, err := fl.scrapeAll(ctx)
	if err != nil {
		return err
	}
	phase1 := openLoop(ctx, cl, reqs, offsets, conns)
	after1, err := fl.scrapeAll(ctx)
	if err != nil {
		return err
	}
	var hitMs, missMs, allMs, lateMs []float64
	var clientHits, clientMisses, temporary float64
	var freshDone []*served
	for _, s := range phase1 {
		err := check(s)
		r.op(err)
		if s.temporaryFail {
			temporary++
		}
		lat := ms(s.done.Sub(s.due))
		allMs = append(allMs, lat)
		lateMs = append(lateMs, ms(s.sent.Sub(s.due)))
		if s.err != nil {
			continue
		}
		if s.cached {
			clientHits++
			hitMs = append(hitMs, lat)
		} else {
			clientMisses++
			missMs = append(missMs, lat)
			if err == nil {
				freshDone = append(freshDone, s)
			}
		}
	}
	reconcile(r, "phase 1", before1, after1, clientHits, clientMisses)
	late99 := quantile(lateMs, 0.99)
	grew := backlogGrew(phase1)
	if late99 > ms(lateLimit) || grew {
		r.invalid("the load generator fell behind in phase 1 (late p99 %.1f ms, backlog grew %t): the run is invalid, not slow", late99, grew)
	}

	// Phase 2: closed loop on the same mix.
	p2 := time.Duration(float64(o.seconds) * phase2Share)
	before2, err := fl.scrapeAll(ctx)
	if err != nil {
		return err
	}
	phase2, elapsed2 := closedLoop(ctx, cl, mix, conns, p2)
	after2, err := fl.scrapeAll(ctx)
	if err != nil {
		return err
	}
	var hits2, misses2 float64
	for _, s := range phase2 {
		r.op(check(s))
		if s.temporaryFail {
			temporary++
		}
		if s.err == nil && s.cached {
			hits2++
		} else if s.err == nil {
			misses2++
		}
	}
	reconcile(r, "phase 2", before2, after2, hits2, misses2)

	// Fleet results must equal in-process runs of the same campaign.
	for i, s := range freshDone {
		if i == replaySample {
			break
		}
		options, err := campaign.Options(s.req.c)
		if err != nil {
			return err
		}
		out, err := runInProcess(ctx, options)
		if err == nil && string(out.body) != string(s.body) {
			err = fmt.Errorf("fleet result for %s seed %d differs from the in-process run", s.req.c.System, s.req.c.Seed)
		}
		if err != nil {
			r.failOp(err)
		}
	}

	fl.stop()
	r.set("peak_rss_mb", fl.peakRSSMiB())
	r.set("ok_ratio", 1-float64(r.failed)/float64(r.attempted))
	r.set("check.error_rate", float64(r.failed)/float64(r.attempted))
	r.set("campaigns_per_s", float64(len(phase2))/elapsed2.Seconds())
	r.set("campaign_p50_ms", median(allMs))
	r.set("campaign_tail_ms", quantile(allMs, tailQuantile(len(allMs))))
	fmt.Fprintf(os.Stderr, "perfbench: serve-fleet: phase 1 %d requests (%d hits, %d misses), late p50 %.3f p99 %.2f ms, hit p50 %.3f ms; phase 2 %d requests in %.1fs\n",
		len(phase1), len(hitMs), len(missMs), median(lateMs), late99, median(hitMs), len(phase2), elapsed2.Seconds())
	if !o.trace {
		return nil
	}

	// Per-layer split: daemon counters from the scrape differences, the
	// daemons' session resolution replayed on the exact request bodies,
	// and the client-side request spans.
	r.set("loadgen.late_p99_ms", late99)
	r.set("loadgen.backlog_grew", b2f(grew))
	hitP50 := median(hitMs)
	r.set("serve.requests", float64(len(phase1)))
	r.set("serve.hits", clientHits)
	r.set("serve.misses", clientMisses)
	r.set("serve.hit_ratio", clientHits/float64(len(phase1)))
	coordB := []metricsSet{before1.coord}
	coordA := []metricsSet{after2.coord}
	r.set("serve.shed", delta(coordB, coordA, "roofserve_admission_shed_total"))
	r.set("serve.evictions", delta(coordB, coordA, "roofserve_cache_evictions_total"))
	r.set("serve.admission_wait_s", delta(coordB, coordA, "roofserve_admission_wait_seconds_sum")/
		max(delta(coordB, coordA, "roofserve_admission_wait_seconds_count"), 1))
	r.set("serve.hit_p50_ms", hitP50)
	r.set("serve.hit_p99_ms", quantile(hitMs, tailQuantile(len(hitMs))))
	r.set("client.retries", temporary)

	c1B, c1A := []metricsSet{before1.coord}, []metricsSet{after1.coord}
	dispatches := delta(c1B, c1A, "roofdist_nodes_dispatched_total")
	rtCount := delta(c1B, c1A, "roofdist_node_roundtrip_seconds_count")
	roundtrip := delta(c1B, c1A, "roofdist_node_roundtrip_seconds_sum") / max(rtCount, 1)
	exec := delta(before1.workers, after1.workers, "roofdist_worker_node_seconds_sum") /
		max(delta(before1.workers, after1.workers, "roofdist_worker_node_seconds_count"), 1)
	r.set("dist.dispatches", dispatches)
	r.set("dist.nodes_per_miss", dispatches/max(clientMisses, 1))
	r.set("dist.requeues", delta(coordB, coordA, "roofdist_nodes_requeued_total"))
	r.set("dist.deduped", delta(coordB, coordA, "roofdist_nodes_deduped_total"))
	r.set("dist.local_fallback", delta(coordB, coordA, "roofdist_local_fallback_total"))
	r.set("dist.roundtrip_s", roundtrip)
	r.set("dist.node_exec_s", exec)
	r.set("dist.miss_p50_ms", median(missMs))
	r.set("dist.miss_p90_ms", quantile(missMs, 0.9))
	r.exact("dist.dispatches", "dist.nodes_per_miss")

	rp, err := replayResolution(phase1)
	if err != nil {
		return err
	}
	r.set("session.new_s", rp.newS)
	r.set("session.fingerprint_s", rp.fpS)
	r.set("session.encode_s", rp.encS)
	r.set("session.resolves", float64(len(phase1))+dispatches)
	r.set("client.decode_s", rp.decodeS)
	r.set("dist.worker_resolve_s", rp.newS+rp.fpS)
	r.set("dist.transport_s", roundtrip-exec-(rp.newS+rp.fpS))
	hitS := hitP50 / 1000
	r.set("serve.hit_overhead_s", hitS-rp.newS-rp.fpS)
	r.set("trace.wall_s", hitS)
	r.set("trace.attributed_s", rp.newS+rp.fpS+rp.decodeS)
	r.set("trace.unattributed_s", hitS-rp.newS-rp.fpS-rp.decodeS)
	r.set("trace.overlap_s", 0)
	// The traced run adds nothing while requests are in flight: spans are
	// built afterwards from the timestamps every run takes, and the
	// scrapes and replays run between and after the phases.
	r.set("trace.overhead_pct", 0)
	fmt.Fprintf(os.Stderr, "perfbench: serve-fleet: hit p50 %.3f ms = session.new %.3f + session.fingerprint %.3f + client.decode %.3f + serve and transport %.3f ms\n",
		hitP50, 1e3*rp.newS, 1e3*rp.fpS, 1e3*rp.decodeS, 1e3*(hitS-rp.newS-rp.fpS-rp.decodeS))
	fmt.Fprintf(os.Stderr, "perfbench: serve-fleet: miss p50 %.3f ms; per miss, summed over %.1f nodes (two run at once): roundtrip %.3f = exec %.3f + worker resolve %.3f + transport %.3f ms\n",
		median(missMs), dispatches/max(clientMisses, 1), 1e3*roundtrip*dispatches/max(clientMisses, 1),
		1e3*exec*dispatches/max(clientMisses, 1), 1e3*(rp.newS+rp.fpS)*dispatches/max(clientMisses, 1),
		1e3*(roundtrip-exec-rp.newS-rp.fpS)*dispatches/max(clientMisses, 1))

	log := newSpanLog()
	for i, s := range phase1 {
		name := "client.hit"
		if !s.cached {
			name = "client.miss"
		}
		root := log.add(i+1, 0, "op.request", s.req.c.System, s.due, s.done, s.done.Sub(s.due), 0)
		log.add(i+1, root, "loadgen.late", "", s.due, s.sent, s.sent.Sub(s.due), 0)
		log.add(i+1, root, name, "", s.sent, s.done, s.done.Sub(s.sent), 0)
	}
	if err := log.write(o.out+"/traces", fmt.Sprintf("%s-seed%d.jsonl", r.workload, o.seed)); err != nil {
		r.invalid("write spans: %v", err)
	}
	r.notExercised("kernel.", "engine.", "bench.", "core.", "sweep.")
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// bodyStore maps each fingerprint to the bytes of its first (miss)
// answer; every later answer for the fingerprint must repeat them.
type bodyStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *bodyStore) check(fp string, body []byte, cached bool) error {
	b.mu.Lock()
	prev, ok := b.m[fp]
	if !ok {
		b.m[fp] = body
	}
	b.mu.Unlock()
	if ok {
		if string(prev) != string(body) {
			return fmt.Errorf("answer for %s differs from its first answer", fp)
		}
		return nil
	}
	if cached {
		return fmt.Errorf("cache hit for %s, which was never answered by a miss", fp)
	}
	_, err := checkSimResult(body)
	return err
}

// prefill fills the warm set through the fleet, conns requests at a
// time. Every warm campaign must miss and pass the result checks.
func prefill(ctx context.Context, cl *client.Client, warm []servev1.Campaign, conns int) (map[string][]byte, []string, []*rooftune.Result, error) {
	raws := make([][]byte, len(warm))
	fps := make([]string, len(warm))
	results := make([]*rooftune.Result, len(warm))
	errs := make([]error, len(warm))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(warm) {
					return
				}
				resp, err := cl.Tune(ctx, warm[i])
				if err == nil && resp.Cached {
					err = fmt.Errorf("warm campaign %d was already cached", i)
				}
				if err == nil {
					results[i], err = checkSimResult(resp.Raw)
					raws[i], fps[i] = resp.Raw, resp.Fingerprint
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, nil, err
	}
	bodies := make(map[string][]byte, len(warm))
	for i, fp := range fps {
		bodies[fp] = raws[i]
	}
	return bodies, fps, results, nil
}

// tune sends one request and records what came back.
func tune(ctx context.Context, cl *client.Client, s *served) {
	s.sent = time.Now()
	resp, err := cl.Tune(ctx, s.req.c)
	s.done = time.Now()
	if err != nil {
		s.err = err
		var ce *client.Error
		if errors.As(err, &ce) {
			s.temporaryFail = ce.Temporary()
			s.err = fmt.Errorf("status %d: %w", ce.Status, err)
		}
		return
	}
	s.cached, s.fingerprint, s.body = resp.Cached, resp.Fingerprint, resp.Raw
}

// openLoop sends reqs[i] at start+offsets[i] over conns connections,
// each connection taking the next due request as soon as it is free, so
// a slow answer delays later requests and their latency, timed from the
// due time, shows it.
func openLoop(ctx context.Context, cl *client.Client, reqs []request, offsets []time.Duration, conns int) []*served {
	out := make([]*served, len(reqs))
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &served{req: reqs[i], due: start.Add(offsets[i])}
				waitUntil(s.due)
				tune(ctx, cl, s)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// waitUntil returns at t: it sleeps until a millisecond before and spins
// the rest of the way, because a timer can fire hundreds of microseconds
// late, which would count against every request.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// closedLoop sends requests from the mix on conns connections, each
// sending its next request when the previous one is answered, for d.
func closedLoop(ctx context.Context, cl *client.Client, mix *mixSource, conns int, d time.Duration) ([]*served, time.Duration) {
	// The mix is drawn up front, in order, so that the sequence of
	// requests depends on the seed only.
	reqs := make([]request, 0, 4096)
	for range cap(reqs) {
		reqs = append(reqs, mix.next())
	}
	var (
		mu   sync.Mutex
		out  []*served
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &served{req: reqs[i], due: time.Now()}
				tune(ctx, cl, s)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// backlogGrew reports whether requests fell further behind schedule as
// phase 1 went on: the median lateness of its last quarter exceeds that
// of its first quarter by more than 20 ms.
func backlogGrew(ss []*served) bool {
	sorted := append([]*served(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].due.Before(sorted[j].due) })
	q := len(sorted) / 4
	if q == 0 {
		return false
	}
	lateness := func(part []*served) float64 {
		var xs []float64
		for _, s := range part {
			xs = append(xs, ms(s.sent.Sub(s.due)))
		}
		return median(xs)
	}
	return lateness(sorted[len(sorted)-q:]) > lateness(sorted[:q])+20
}

// reconcile checks the coordinator's cache counters against the
// dispositions the client saw: they must agree exactly.
func reconcile(r *report, phase string, before, after fleetScrape, hits, misses float64) {
	b, a := []metricsSet{before.coord}, []metricsSet{after.coord}
	dh := delta(b, a, "roofserve_cache_hits_total")
	dm := delta(b, a, "roofserve_cache_misses_total")
	if dh != hits || dm != misses {
		r.invalid("%s: coordinator counted %v hits and %v misses, the client saw %v and %v", phase, dh, dm, hits, misses)
	}
}

// resolution is the replayed per-request cost of the daemons' session
// resolution, and of the client's decoding, on the exact request bodies.
type resolution struct {
	newS, fpS, encS, decodeS float64
}

// replayResolution times, for every phase-1 request body, what the
// coordinator does before it can consult its cache — parse the body,
// resolve options, rooftune.New, Fingerprint — and, for each answer,
// what the client does after it: decode the result/v1 bytes. Medians.
func replayResolution(ss []*served) (resolution, error) {
	var newS, fpS, encS, decS []float64
	for _, s := range ss {
		if s.err != nil {
			continue
		}
		body, err := json.Marshal(s.req.c)
		if err != nil {
			return resolution{}, err
		}
		t0 := time.Now()
		c, err := campaign.Parse(bytes.NewReader(body))
		if err != nil {
			return resolution{}, err
		}
		options, err := campaign.Options(c)
		if err != nil {
			return resolution{}, err
		}
		sess, err := rooftune.New(options...)
		if err != nil {
			return resolution{}, err
		}
		t1 := time.Now()
		if _, err := sess.Fingerprint(); err != nil {
			return resolution{}, err
		}
		t2 := time.Now()
		var res rooftune.Result
		if err := json.Unmarshal(s.body, &res); err != nil {
			return resolution{}, err
		}
		t3 := time.Now()
		if _, err := json.Marshal(&res); err != nil {
			return resolution{}, err
		}
		t4 := time.Now()
		newS = append(newS, t1.Sub(t0).Seconds())
		fpS = append(fpS, t2.Sub(t1).Seconds())
		decS = append(decS, t3.Sub(t2).Seconds())
		encS = append(encS, t4.Sub(t3).Seconds())
	}
	return resolution{newS: median(newS), fpS: median(fpS), encS: median(encS), decodeS: median(decS)}, nil
}
