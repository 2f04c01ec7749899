package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	distv1 "rooftune/dist/v1"
)

// BenchmarkWorkerMiss measures what one worker spends on a campaign the
// fleet has never seen: every node of the serving fleet's campaign shape
// (dgemm, TRIAD L1–DRAM chained, spmv, stencil) dispatched to the one
// worker, each op a new seed and so new campaign bytes. Nodes reach the
// worker's handler one at a time, as on a single-slot roofworkerd, and
// worker-ms/op sums the handler's time: parsing the spec, resolving and
// fingerprinting the campaign, building the session and measuring. The
// rest of ns/op is the coordinator side (one session, RunDist) and is
// not the worker's.
func BenchmarkWorkerMiss(b *testing.B) {
	w := NewWorker(context.Background(), WorkerConfig{Name: "bench", Parallelism: 1})
	h := w.Handler()
	var (
		mu     sync.Mutex // one node in the handler at a time
		worker time.Duration
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp, sess, err := resolve(fmt.Sprintf(`{"system": "Gold 6148", "workloads": ["dgemm", "triad", "spmv", "stencil"], "seed": %d, "triadLevels": ["L1", "L2", "L3", "DRAM"], "chain": true}`, i+1))
		if err != nil {
			b.Fatal(err)
		}
		fp, err := sess.Fingerprint()
		if err != nil {
			b.Fatal(err)
		}
		campJSON, err := json.Marshal(camp)
		if err != nil {
			b.Fatal(err)
		}
		exec := func(_ context.Context, nodeID string, seedValue float64) (*distv1.NodeOutcome, error) {
			spec, err := json.Marshal(distv1.NodeSpec{
				Schema:      distv1.Schema,
				Campaign:    campJSON,
				NodeID:      nodeID,
				SeedValue:   seedValue,
				Fingerprint: distv1.NodeFingerprint(fp, nodeID, seedValue),
			})
			if err != nil {
				return nil, err
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, distv1.PathRun, bytes.NewReader(spec))
			mu.Lock()
			start := time.Now()
			h.ServeHTTP(rec, req)
			worker += time.Since(start)
			mu.Unlock()
			if rec.Code != http.StatusOK || rec.Header().Get(distv1.DedupeHeader) != "miss" {
				return nil, fmt.Errorf("node %s: status %d, dedupe %q: %s", nodeID, rec.Code, rec.Header().Get(distv1.DedupeHeader), rec.Body.Bytes())
			}
			var out distv1.NodeOutcome
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				return nil, err
			}
			return &out, nil
		}
		if _, err := sess.RunDist(context.Background(), exec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(worker.Microseconds())/1e3/float64(b.N), "worker-ms/op")
}
