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
// cache-hit tune request: campaign parse, fingerprint, cache lookup,
// stored-bytes response. This is the daemon's steady-state hot path —
// a warm cache answers every repeat campaign through it.
func BenchmarkServeCacheHit(b *testing.B) {
	srv, err := New(nil, Config{CacheEntries: 16})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	campaign := `{"system": "Gold 6148", "workloads": ["counting"], "seed": 97}`

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
