package bench

import (
	"fmt"
	"time"

	"rooftune/internal/blas"
	"rooftune/internal/parallel"
	"rooftune/internal/simstream"
	"rooftune/internal/stream"
	"rooftune/internal/units"
	"rooftune/internal/vclock"
)

// NativeEngine executes benchmark cases with the real pure-Go kernels on
// the host machine, measuring wall-clock time. It demonstrates that the
// tool is not simulator-only: the same tuner builds a genuine roofline of
// whatever machine runs it.
type NativeEngine struct {
	Clock   vclock.Clock
	Threads int // worker goroutines; 0 means GOMAXPROCS
}

// NewNativeEngine builds a native engine with a real clock.
func NewNativeEngine(threads int) *NativeEngine {
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	return &NativeEngine{Clock: vclock.NewReal(), Threads: threads}
}

// Name identifies the engine in reports.
func (e *NativeEngine) Name() string { return "native" }

// DGEMMCase returns a real DGEMM case. Socket placement is not
// controllable from pure Go, so the threads parameter plays the role of
// the paper's core-allocation policy.
func (e *NativeEngine) DGEMMCase(n, m, k int) Case {
	return &nativeDGEMMCase{engine: e, n: n, m: m, k: k}
}

// TriadCase returns a real TRIAD case.
func (e *NativeEngine) TriadCase(elems int) Case {
	return &nativeTriadCase{engine: e, elems: elems}
}

type nativeDGEMMCase struct {
	engine  *NativeEngine
	n, m, k int
}

func (c *nativeDGEMMCase) Key() string {
	return fmt.Sprintf("native-dgemm/%dx%dx%d", c.n, c.m, c.k)
}

func (c *nativeDGEMMCase) Config() Config {
	return DGEMMConfig{N: c.n, M: c.m, K: c.k, Sockets: 1, Threads: c.engine.Threads}
}

func (c *nativeDGEMMCase) Describe() string {
	return fmt.Sprintf("n=%d m=%d k=%d threads=%d", c.n, c.m, c.k, c.engine.Threads)
}

func (c *nativeDGEMMCase) Metric() Metric { return MetricFlops }

func (c *nativeDGEMMCase) NewInvocation(inv int) (Instance, error) {
	if c.n <= 0 || c.m <= 0 || c.k <= 0 {
		return nil, fmt.Errorf("bench: invalid DGEMM dims %s", c.Describe())
	}
	// Fresh allocations model the paper's invocation-level repetition:
	// new process, new memory layout.
	a := blas.NewMatrix(c.n, c.k)
	b := blas.NewMatrix(c.k, c.m)
	out := blas.NewMatrix(c.n, c.m)
	a.FillPattern(1.0 + float64(inv)*0.01)
	b.FillPattern(2.0 + float64(inv)*0.01)
	pool := parallel.NewPool(c.engine.Threads)
	return &nativeDGEMMInstance{c: c, a: a, b: b, out: out, pool: pool}, nil
}

type nativeDGEMMInstance struct {
	c         *nativeDGEMMCase
	a, b, out *blas.Matrix
	pool      *parallel.Pool
}

func (i *nativeDGEMMInstance) run() {
	// alpha=1, beta=0 as in the paper's benchmark (§III-A).
	blas.DGEMM(1.0, i.a, i.b, 0.0, i.out, i.pool)
}

func (i *nativeDGEMMInstance) Warmup() { i.run() }

func (i *nativeDGEMMInstance) Step() time.Duration {
	return vclock.Time(i.run)
}

func (i *nativeDGEMMInstance) Work() float64 {
	return units.DGEMMFlops(i.c.n, i.c.m, i.c.k)
}

func (i *nativeDGEMMInstance) Close() {
	i.pool.Close()
	i.a, i.b, i.out = nil, nil, nil
}

type nativeTriadCase struct {
	engine *NativeEngine
	elems  int
}

func (c *nativeTriadCase) Key() string {
	return fmt.Sprintf("native-triad/%d", c.elems)
}

func (c *nativeTriadCase) Config() Config {
	return TriadConfig{Elements: c.elems, Sockets: 1, Threads: c.engine.Threads}
}

func (c *nativeTriadCase) Describe() string {
	return fmt.Sprintf("N=%d (W=%v) threads=%d",
		c.elems, units.ByteSize(units.TriadBytes(c.elems)), c.engine.Threads)
}

func (c *nativeTriadCase) Metric() Metric { return MetricBandwidth }

func (c *nativeTriadCase) NewInvocation(inv int) (Instance, error) {
	if c.elems <= 0 {
		return nil, fmt.Errorf("bench: invalid TRIAD length %d", c.elems)
	}
	v := stream.NewVectors(c.elems)
	pool := parallel.NewPool(c.engine.Threads)
	return &nativeTriadInstance{c: c, v: v, pool: pool, passes: 1}, nil
}

// maxTriadBatch caps the passes one native TRIAD step batches, as
// simstream caps its simulated batches.
const maxTriadBatch = 1 << 24

type nativeTriadInstance struct {
	c    *nativeTriadCase
	v    *stream.Vectors
	pool *parallel.Pool
	// passes is the number of kernel passes one measured step batches,
	// sized by Warmup.
	passes int
}

func (i *nativeTriadInstance) run() {
	for p := 0; p < i.passes; p++ {
		i.v.RunPool(stream.Triad, i.pool)
	}
}

// Warmup runs the unmeasured pre-heat pass and sizes the step's batch.
// A cache-resident working set finishes a pass in well under the timer's
// microsecond resolution, which would time it as zero; so while a batch
// times shorter than simstream.DefaultMinMeasuredPass, Warmup grows it by
// the factor that timing predicts (by the floor's microsecond count when
// the batch timed as zero). Each decision takes the fastest of three
// timings of the batch: one descheduled or cold run must not pass a
// sub-microsecond batch off as long enough. The L3 and DRAM working sets,
// whose single pass already lasts that long, keep one pass per step.
func (i *nativeTriadInstance) Warmup() {
	const floor = simstream.DefaultMinMeasuredPass
	i.passes = 1
	i.run() // pre-heat: first touch of the vectors, the pool's workers awake
	for i.passes < maxTriadBatch {
		d := min(vclock.Time(i.run), vclock.Time(i.run), vclock.Time(i.run))
		if d >= floor {
			return
		}
		grow := int(floor / time.Microsecond)
		if d > 0 {
			grow = int((floor + d - 1) / d)
		}
		i.passes = min(i.passes*grow, maxTriadBatch)
	}
}

func (i *nativeTriadInstance) Step() time.Duration { return vclock.Time(i.run) }

// Work returns the bytes one step moves: the whole batch Warmup sized.
func (i *nativeTriadInstance) Work() float64 {
	return units.TriadBytes(i.c.elems) * float64(i.passes)
}

func (i *nativeTriadInstance) Close() {
	i.pool.Close()
	i.v = nil
}
