package bench

import (
	"fmt"
	"time"

	"rooftune/internal/blas"
	"rooftune/internal/parallel"
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
	return &nativeTriadInstance{c: c, v: v, pool: pool}, nil
}

type nativeTriadInstance struct {
	c    *nativeTriadCase
	v    *stream.Vectors
	pool *parallel.Pool
}

func (i *nativeTriadInstance) Warmup() { i.v.RunPool(stream.Triad, i.pool) }

func (i *nativeTriadInstance) Step() time.Duration {
	return vclock.Time(func() { i.v.RunPool(stream.Triad, i.pool) })
}

func (i *nativeTriadInstance) Work() float64 { return units.TriadBytes(i.c.elems) }

func (i *nativeTriadInstance) Close() {
	i.pool.Close()
	i.v = nil
}
