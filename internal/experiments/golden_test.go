package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

// withoutFooter drops GenerateMarkdown's wall-time footer line, the one
// line of the document that is not a function of the seed.
func withoutFooter(md string) string {
	lines := strings.SplitAfter(md, "\n")
	kept := lines[:0]
	for _, line := range lines {
		if !strings.HasPrefix(line, "Generated in ") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

// TestExperimentsGolden pins every table, figure and note of the
// generated EXPERIMENTS.md, footer aside, against
// testdata/experiments.golden (regenerate with -update). A refactor of
// the drivers must leave every byte in place; a deliberate change to an
// artifact shows up as a reviewed diff of the golden.
func TestExperimentsGolden(t *testing.T) {
	md, err := New().GenerateMarkdown()
	if err != nil {
		t.Fatal(err)
	}
	got := withoutFooter(md)
	golden := filepath.Join("testdata", "experiments.golden")
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s drifted at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted: %d lines generated, %d in the golden", golden, len(gl), len(wl))
	}
}
