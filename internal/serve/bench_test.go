package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	servev1 "rooftune/serve/v1"
	"strings"
	"testing"
)

// BenchmarkServeCacheHit measures the full HTTP round trip of a
// cache-hit tune request: reading the body, keying the campaign, the
// cache lookup and the stored-bytes response. This is the daemon's
// steady-state hot path — a warm cache answers every repeat campaign
// through it. "counting" posts a one-workload toy campaign; "fleet"
// posts the shape a serving fleet repeats (dgemm, TRIAD L1–DRAM
// chained, spmv, stencil), whose plan has about 1,100 cases, so a hit
// that built a session would show here.
func BenchmarkServeCacheHit(b *testing.B) {
	for _, c := range []struct{ name, campaign string }{
		{"counting", `{"system": "Gold 6148", "workloads": ["counting"], "seed": 97}`},
		{"fleet", `{"system": "Gold 6148", "workloads": ["dgemm", "triad", "spmv", "stencil"], "seed": 97, "triadLevels": ["L1", "L2", "L3", "DRAM"], "chain": true}`},
	} {
		b.Run(c.name, func(b *testing.B) { benchmarkCacheHit(b, c.campaign) })
	}
}

func benchmarkCacheHit(b *testing.B, campaign string) {
	srv, err := New(nil, Config{CacheEntries: 16})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	warm, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader(campaign))
	if err != nil {
		b.Fatal(err)
	}
	var sink bytes.Buffer
	if _, err := sink.ReadFrom(warm.Body); err != nil {
		b.Fatal(err)
	}
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", warm.StatusCode, sink.Bytes())
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader(campaign))
		if err != nil {
			b.Fatal(err)
		}
		sink.Reset()
		if _, err := sink.ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(servev1.CacheHeader); got != "hit" {
			b.Fatalf("iteration %d: %s = %q, want hit", i, servev1.CacheHeader, got)
		}
	}
}
