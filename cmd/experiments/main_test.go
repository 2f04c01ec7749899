package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, set in a child process's environment, makes the test
// binary run the command's main instead of its tests.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOptimizationTablesInPaperOrder: Tables VIII-XI render in the
// paper's order, and byte-identically, on every run. Each render is a
// fresh process, so an order that depended on map iteration would show
// up as a misordered or differing render.
func TestOptimizationTablesInPaperOrder(t *testing.T) {
	var first []byte
	for run := 0; run < 3; run++ {
		cmd := exec.Command(os.Args[0], "-artifact", "table8,table9,table10,table11")
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("experiments: %v", err)
		}
		prev := -1
		for _, title := range []string{"Table VIII:", "Table IX:", "Table X:", "Table XI:"} {
			i := strings.Index(string(out), title)
			if i < 0 {
				t.Fatalf("%q missing from output:\n%s", title, out)
			}
			if i < prev {
				t.Fatalf("run %d: %q rendered out of paper order:\n%s", run, title, out)
			}
			prev = i
		}
		if first == nil {
			first = out
		} else if string(out) != string(first) {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", run, out, first)
		}
	}
}

// TestSeedZeroRejected: seed 0 would run every session under the default
// seed while the output names seed 0, so the command refuses it before
// running anything.
func TestSeedZeroRejected(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-seed", "0", "-artifact", "table1")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("-seed 0: err = %v, want exit status 1", err)
	}
	if len(out) != 0 {
		t.Fatalf("-seed 0 printed output:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "-seed 0") {
		t.Fatalf("stderr does not name the rejected seed: %q", stderr.String())
	}
}
