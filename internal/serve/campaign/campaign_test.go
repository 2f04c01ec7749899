package campaign

import (
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

// FuzzResolveCampaign drives arbitrary bytes through the daemons'
// resolution path, a Resolver: parse, resolve options, New,
// Fingerprint. No input may panic; a session New accepts must
// fingerprint; bytes that fail to resolve must fail again and never be
// remembered; resolved bytes must come back from the
// memo with the same fingerprint and no session, and that fingerprint
// must equal a fresh session's.
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
		r := NewResolver(0)
		fp, res, err := r.Resolve(data)
		if err != nil {
			if _, berr := Build(data); berr == nil {
				t.Fatalf("New accepted %s but Fingerprint failed: %v", data, err)
			}
			if _, _, again := r.Resolve(data); again == nil {
				t.Fatalf("%s failed to resolve (%v), then resolved", data, err)
			}
			if n := r.fps.Stats().Entries; n != 0 {
				t.Fatalf("%s failed to resolve but the memo holds %d entries", data, n)
			}
			return
		}
		if res == nil {
			t.Fatalf("first resolution of %s built no session", data)
		}
		if again, err := res.Session.Fingerprint(); err != nil || again != fp {
			t.Fatalf("memoized Fingerprint = %s, %v; first call %s", again, err, fp)
		}
		if memo, res, err := r.Resolve(data); err != nil || memo != fp || res != nil {
			t.Fatalf("repeat resolution = %s, %v, built %t; want %s from the memo", memo, err, res != nil, fp)
		}
		fresh, err := Build(data)
		if err != nil {
			t.Fatalf("Build of resolved bytes %s failed: %v", data, err)
		}
		if got, err := fresh.Session.Fingerprint(); err != nil || got != fp {
			t.Fatalf("fresh session fingerprints %s (%v), memoized %s", got, err, fp)
		}
	})
}
