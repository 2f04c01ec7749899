package sweep

import (
	"testing"

	"rooftune/internal/parallel"
)

// TestRunnerHostClamp pins the Host cap's worker arithmetic: Host
// substitutes for the machine's thread count when the Runner sizes its
// sweep pool, so a serial session (Host 1) runs one sweep at a time.
func TestRunnerHostClamp(t *testing.T) {
	def := parallel.DefaultThreads()
	tests := []struct {
		name string
		r    Runner
		want int
	}{
		{"host caps default workers", Runner{Host: 2}, 2},
		{"zero host falls back to machine", Runner{}, def},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.r.workerCount(); got != tc.want {
				t.Fatalf("workerCount() = %d, want %d", got, tc.want)
			}
		})
	}
}
