package rooftune

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/units"
)

// goldenSystems are the five simulated systems of the paper.
var goldenSystems = []string{"2650v4", "2695v4", "Gold 6132", "Gold 6148", "Silver 4110"}

// servedOptions is the campaign shape a serving fleet runs: all four
// workloads with the TRIAD levels chained L1 to DRAM, under the session
// default budget.
func servedOptions(seed uint64) []Option {
	return []Option{
		WithWorkloads("dgemm", "triad", "spmv", "stencil"),
		WithSeed(seed),
		WithTriadLevels("L1", "L2", "L3", "DRAM"),
		WithSweepChaining(true),
	}
}

// fixedSampleBudget is the session default budget with every stop
// condition switched off: the paper's fixed-sample "Default" technique.
func fixedSampleBudget() bench.Budget {
	b := bench.DefaultBudget().WithFlags(true, true, true)
	b.UseConfidence, b.UseInnerBound, b.UseOuterBound = false, false, false
	return b
}

// goldenShapes are the campaign shapes the fingerprint golden pins, in
// file order.
var goldenShapes = []struct {
	name string
	opts func() []Option
}{
	{"default", func() []Option { return nil }},
	{"served", func() []Option { return servedOptions(1) }},
	{"served-fixed", func() []Option {
		return append(servedOptions(1), WithBudget(fixedSampleBudget()))
	}},
	{"spmv-stencil", func() []Option {
		return []Option{
			WithWorkloads("spmv", "stencil"),
			WithSeed(7),
			WithSpMVShape(1<<17, 8),
			WithStencilGrid(1024, 512),
		}
	}},
	{"custom-space", func() []Option {
		return []Option{
			WithWorkloads("triad", "dgemm"),
			WithSeed(42),
			WithSpace([]core.Dims{{N: 512, M: 512, K: 128}, {N: 2048, M: 1024, K: 256}}),
			WithTriadRange(16*units.KiB, 256*units.MiB),
			WithTriadLevels("L2", "DRAM"),
		}
	}},
}

// TestFingerprintGolden pins the fingerprint of every golden shape on
// every paper system against testdata/fingerprints.golden (regenerate
// with -update). Fingerprints key the serving tier's result cache and
// the distributed tier's node addresses, so a value that moves without
// a fingerprintSchema bump silently strands every stored entry.
func TestFingerprintGolden(t *testing.T) {
	var sb strings.Builder
	for _, sys := range goldenSystems {
		for _, shape := range goldenShapes {
			fp := fingerprintFor(t, append([]Option{WithSystem(sys)}, shape.opts()...)...)
			fmt.Fprintf(&sb, "%s\t%s\t%s\n", sys, shape.name, fp)
		}
	}
	got := sb.String()
	golden := filepath.Join("testdata", "fingerprints.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("fingerprints drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestResultGolden pins the SHA-256 of json.Marshal(Result) for every
// golden shape on every paper system against testdata/results.golden
// (regenerate with -update). Unlike the fingerprints, these bytes must
// not move when only the fingerprint schema does: a drift here means a
// change altered what a campaign measures or reports, search time,
// configurations and warnings included.
func TestResultGolden(t *testing.T) {
	var sb strings.Builder
	for _, sys := range goldenSystems {
		for _, shape := range goldenShapes {
			sess, err := New(append([]Option{WithSystem(sys)}, shape.opts()...)...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run(context.Background())
			if err != nil {
				t.Fatalf("%s %s: %v", sys, shape.name, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s\t%s\t%x\n", sys, shape.name, sha256.Sum256(b))
		}
	}
	got := sb.String()
	golden := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Result bytes drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
