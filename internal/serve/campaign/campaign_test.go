package campaign

import (
	"bytes"
	"encoding/json"
	"testing"

	"rooftune"
	servev1 "rooftune/serve/v1"
)

// servedCampaign is the campaign shape a serving fleet runs: all four
// workloads with the TRIAD levels chained L1 to DRAM.
var servedCampaign = servev1.Campaign{
	System:      "Gold 6148",
	Workloads:   []string{"dgemm", "triad", "spmv", "stencil"},
	Seed:        5,
	TriadLevels: []string{"L1", "L2", "L3", "DRAM"},
	Chain:       true,
}

// BenchmarkSessionResolve times what a daemon does to key a served
// campaign before any measurement: resolve the wire campaign into
// options, build the session (New plans and validates it) and
// fingerprint it. On a cache hit this is the whole of the session's
// work.
func BenchmarkSessionResolve(b *testing.B) {
	resolve := func(b *testing.B, fingerprint bool) {
		for i := 0; i < b.N; i++ {
			opts, err := Options(servedCampaign)
			if err != nil {
				b.Fatal(err)
			}
			sess, err := rooftune.New(opts...)
			if err != nil {
				b.Fatal(err)
			}
			if fingerprint {
				if _, err := sess.Fingerprint(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("New", func(b *testing.B) { resolve(b, false) })
	b.Run("New+Fingerprint", func(b *testing.B) { resolve(b, true) })
}

// maxFuzzCampaign bounds fuzz inputs, as a daemon bounds request bodies
// (far below its 1 MiB cap, which no real campaign approaches).
const maxFuzzCampaign = 4 << 10

// FuzzResolveCampaign drives arbitrary bytes through the daemon's
// resolution path: parse, resolve options, New, Fingerprint. No input
// may panic, a session New accepts must fingerprint, and the memoized
// fingerprint must equal a fresh session's.
func FuzzResolveCampaign(f *testing.F) {
	served, err := json.Marshal(servedCampaign)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(served)
	f.Add([]byte(`{"system":"2650v4"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzCampaign {
			return
		}
		camp, err := servev1.ParseCampaign(bytes.NewReader(data))
		if err != nil {
			return
		}
		opts, err := Options(camp)
		if err != nil {
			return
		}
		sess, err := rooftune.New(opts...)
		if err != nil {
			return
		}
		fp, err := sess.Fingerprint()
		if err != nil {
			t.Fatalf("New accepted %s but Fingerprint failed: %v", data, err)
		}
		if again, err := sess.Fingerprint(); err != nil || again != fp {
			t.Fatalf("memoized Fingerprint = %s, %v; first call %s", again, err, fp)
		}
		fresh, err := rooftune.New(opts...)
		if err != nil {
			t.Fatalf("second New of %s failed: %v", data, err)
		}
		if got, err := fresh.Fingerprint(); err != nil || got != fp {
			t.Fatalf("fresh session fingerprints %s (%v), memoized %s", got, err, fp)
		}
	})
}
