package bench

import (
	"fmt"
	"time"

	"rooftune/internal/parallel"
	"rooftune/internal/simspmv"
	"rooftune/internal/spmv"
	"rooftune/internal/vclock"
)

// SpMVCase returns the simulated benchmark case for one CSR SpMV
// configuration: an n x n matrix with nnzPerRow stored elements per row,
// evaluated at the given row-chunk size on the given socket count.
func (e *SimEngine) SpMVCase(n, nnzPerRow, chunk, sockets int) Case {
	return &simSpMVCase{engine: e, n: n, nnz: nnzPerRow, chunk: chunk, sockets: sockets}
}

type simSpMVCase struct {
	engine  *SimEngine
	n, nnz  int
	chunk   int
	sockets int
	run     *simRun
}

func (c *simSpMVCase) Key() string {
	var buf [64]byte
	b := appendField(buf[:0], "spmv/", c.sockets)
	b = appendField(b, "/", c.n)
	b = appendField(b, "x", c.nnz)
	return string(appendField(b, "/", c.chunk))
}

func (c *simSpMVCase) Config() Config {
	return SpMVConfig{N: c.n, NNZPerRow: c.nnz, ChunkRows: c.chunk, Sockets: c.sockets}
}

func (c *simSpMVCase) Describe() string {
	var buf [64]byte
	b := appendField(buf[:0], "n=", c.n)
	b = appendField(b, " nnz/row=", c.nnz)
	b = appendField(b, " chunk=", c.chunk)
	return string(appendField(b, " sockets=", c.sockets))
}

func (c *simSpMVCase) Metric() Metric { return MetricFlops }

func (c *simSpMVCase) NewInvocation(inv int) (Instance, error) {
	if c.n <= 0 || c.nnz <= 0 || c.chunk <= 0 {
		return nil, fmt.Errorf("bench: invalid SpMV configuration %s", c.Describe())
	}
	if c.run == nil {
		c.run = c.engine.newRun(c.engine.SpMV().Point(c.n, c.nnz, c.chunk, c.sockets))
	}
	return c.run.invoke(simspmv.Seed(c.engine.Seed, c.n, c.nnz, c.chunk, c.sockets, inv)), nil
}

// SpMVCase returns a real CSR SpMV case over a shared read-only matrix.
// The matrix is built once per sweep by the workload (synthesising it per
// invocation would dominate the measurement); the x and y vectors and the
// worker pool are still allocated per invocation, modelling the paper's
// process-level repetition. A non-positive threads falls back to the
// engine's parallelism, so thread count joins chunk size as a tunable.
func (e *NativeEngine) SpMVCase(a *spmv.CSR, chunk, threads int) Case {
	if threads <= 0 {
		threads = e.Threads
	}
	return &nativeSpMVCase{engine: e, a: a, chunk: chunk, threads: threads}
}

type nativeSpMVCase struct {
	engine  *NativeEngine
	a       *spmv.CSR
	chunk   int
	threads int
}

func (c *nativeSpMVCase) Key() string {
	return fmt.Sprintf("native-spmv/%dx%d/%d/t%d", c.a.N, c.a.NNZ(), c.chunk, c.threads)
}

func (c *nativeSpMVCase) Config() Config {
	nnzPerRow := 0
	if c.a.N > 0 {
		nnzPerRow = c.a.NNZ() / c.a.N
	}
	return SpMVConfig{N: c.a.N, NNZPerRow: nnzPerRow, ChunkRows: c.chunk, Sockets: 1, Threads: c.threads}
}

func (c *nativeSpMVCase) Describe() string {
	return fmt.Sprintf("n=%d nnz=%d chunk=%d threads=%d", c.a.N, c.a.NNZ(), c.chunk, c.threads)
}

func (c *nativeSpMVCase) Metric() Metric { return MetricFlops }

func (c *nativeSpMVCase) NewInvocation(inv int) (Instance, error) {
	if c.chunk <= 0 {
		return nil, fmt.Errorf("bench: invalid SpMV chunk %d", c.chunk)
	}
	if err := c.a.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	x := make([]float64, c.a.N)
	y := make([]float64, c.a.N)
	for i := range x {
		x[i] = 1 + float64(i%7)*0.25 + float64(inv)*0.01
	}
	return &nativeSpMVInstance{c: c, x: x, y: y, pool: parallel.NewPool(c.threads)}, nil
}

type nativeSpMVInstance struct {
	c    *nativeSpMVCase
	x, y []float64
	pool *parallel.Pool
}

func (i *nativeSpMVInstance) run() { spmv.MulChunked(i.y, i.c.a, i.x, i.c.chunk, i.pool) }

func (i *nativeSpMVInstance) Warmup() { i.run() }

func (i *nativeSpMVInstance) Step() time.Duration {
	return vclock.Time(i.run)
}

func (i *nativeSpMVInstance) Work() float64 { return i.c.a.Flops() }

func (i *nativeSpMVInstance) Close() {
	i.pool.Close()
	i.x, i.y = nil, nil
}
