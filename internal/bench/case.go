package bench

import (
	"time"

	"rooftune/internal/hw"
)

// Metric identifies what a benchmark maximises.
type Metric int

// Metrics.
const (
	MetricFlops     Metric = iota // FLOP/s (DGEMM)
	MetricBandwidth               // bytes/s (TRIAD)
)

// Unit returns the reporting unit of the metric.
func (m Metric) Unit() string {
	if m == MetricBandwidth {
		return "GB/s"
	}
	return "GFLOP/s"
}

// Scale converts a metric value in base units to its reporting unit.
func (m Metric) Scale(v float64) float64 { return v / 1e9 }

// Config is the typed identity of a benchmark configuration. The
// evaluator copies it from Case onto Outcome, so search winners are
// recovered as structured values instead of being re-parsed out of the
// string Key — key-format drift can no longer silently zero a result.
// It is a closed sum: DGEMMConfig, TriadConfig, SpMVConfig and
// StencilConfig. Adding a variant means teaching the session's result
// assembly about it; the root package's config round-trip test counts
// the benchConfig methods declared here and fails if the two drift.
type Config interface {
	benchConfig()
}

// DGEMMConfig identifies a DGEMM configuration: the matrix dimensions
// plus the core-allocation policy (sockets for the simulated engines,
// worker threads for the native one).
type DGEMMConfig struct {
	N, M, K int
	// Sockets is the simulated socket count (1 for native builds, where
	// placement is not controllable from pure Go).
	Sockets int
	// Threads is the native engine's parallelism (0 for simulated builds).
	Threads int
}

func (DGEMMConfig) benchConfig() {}

// TriadConfig identifies a TRIAD configuration: the vector length plus
// the thread-placement policy.
type TriadConfig struct {
	// Elements is the TRIAD vector length N.
	Elements int
	// Affinity is the simulated thread-placement policy.
	Affinity hw.Affinity
	// Sockets is the simulated socket count (1 for native builds).
	Sockets int
	// Threads is the native engine's parallelism (0 for simulated builds).
	Threads int
}

func (TriadConfig) benchConfig() {}

// SpMVConfig identifies a CSR SpMV configuration: the synthetic matrix's
// shape plus the tuned scheduling parameters.
type SpMVConfig struct {
	// N is the matrix dimension and NNZPerRow the stored elements per
	// row; together they fix the kernel's operational intensity.
	N, NNZPerRow int
	// ChunkRows is the tuned rows-per-task granularity.
	ChunkRows int
	// Sockets is the simulated socket count (1 for native builds).
	Sockets int
	// Threads is the tuned native worker count (0 for simulated builds,
	// where core allocation is the socket count).
	Threads int
}

func (SpMVConfig) benchConfig() {}

// StencilConfig identifies a 2D 5-point Jacobi configuration: the grid
// shape plus the tuned tile dimensions.
type StencilConfig struct {
	// NX and NY are the grid dimensions.
	NX, NY int
	// TileX and TileY are the tuned tile dimensions.
	TileX, TileY int
	// Sockets is the simulated socket count (1 for native builds).
	Sockets int
	// Threads is the tuned native worker count (0 for simulated builds).
	Threads int
}

func (StencilConfig) benchConfig() {}

// Case is one benchmark configuration: a point in the autotuner's search
// space bound to an engine that can execute (or simulate) it. The
// evaluator repeatedly creates invocations of it, mirroring the paper's
// outer loop which re-executes the benchmark program.
//
// A case's invocations never overlap: each Instance is closed before the
// next NewInvocation, and one case is evaluated by one goroutine at a
// time (a search may evaluate it again later, as the second-chance pass
// does). A case may therefore hand out the same Instance every time,
// reset for the new invocation, as the simulated cases do.
type Case interface {
	// Key uniquely identifies the configuration within a search space.
	Key() string
	// Config returns the configuration's typed identity, carried onto the
	// evaluation Outcome.
	Config() Config
	// Describe returns a human-readable parameter description, e.g.
	// "n=1000 m=4096 k=128".
	Describe() string
	// Metric says what the per-iteration measurements mean.
	Metric() Metric
	// NewInvocation starts invocation number inv (0-based). The engine
	// accounts any startup/initialisation cost to its clock before
	// returning. The returned Instance is valid until its Close.
	NewInvocation(inv int) (Instance, error)
}

// Instance is one live invocation of a benchmark case. Implementations
// advance their engine's clock as a side effect of Warmup and Step, so
// the evaluator's wall-clock accounting works identically for real and
// simulated engines.
type Instance interface {
	// Warmup performs the unmeasured pre-heat execution (§III-A).
	Warmup()
	// Step executes the kernel once and returns the measured elapsed
	// time, quantised to the timer's resolution.
	Step() time.Duration
	// Work returns the work one Step measures in the case's metric base
	// units (FLOPs for DGEMM, bytes for TRIAD). The evaluator reads it
	// after Warmup, which may size a batch of executions per Step.
	Work() float64
	// Close releases invocation resources.
	Close()
}
