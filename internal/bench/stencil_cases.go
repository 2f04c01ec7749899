package bench

import (
	"fmt"
	"time"

	"rooftune/internal/parallel"
	"rooftune/internal/simstencil"
	"rooftune/internal/stencil"
	"rooftune/internal/vclock"
)

// StencilCase returns the simulated benchmark case for one 2D 5-point
// Jacobi configuration: an nx x ny grid swept in tileX x tileY tiles on
// the given socket count.
func (e *SimEngine) StencilCase(nx, ny, tileX, tileY, sockets int) Case {
	return &simStencilCase{engine: e, nx: nx, ny: ny, tx: tileX, ty: tileY, sockets: sockets}
}

type simStencilCase struct {
	engine  *SimEngine
	nx, ny  int
	tx, ty  int
	sockets int
	run     *simRun
}

func (c *simStencilCase) Key() string {
	var buf [64]byte
	b := appendField(buf[:0], "stencil/", c.sockets)
	b = appendField(b, "/", c.nx)
	b = appendField(b, "x", c.ny)
	b = appendField(b, "/", c.tx)
	return string(appendField(b, "x", c.ty))
}

func (c *simStencilCase) Config() Config {
	return StencilConfig{NX: c.nx, NY: c.ny, TileX: c.tx, TileY: c.ty, Sockets: c.sockets}
}

func (c *simStencilCase) Describe() string {
	var buf [64]byte
	b := appendField(buf[:0], "grid=", c.nx)
	b = appendField(b, "x", c.ny)
	b = appendField(b, " tile=", c.tx)
	b = appendField(b, "x", c.ty)
	return string(appendField(b, " sockets=", c.sockets))
}

func (c *simStencilCase) Metric() Metric { return MetricFlops }

func (c *simStencilCase) NewInvocation(inv int) (Instance, error) {
	if c.nx < 3 || c.ny < 3 || c.tx <= 0 || c.ty <= 0 {
		return nil, fmt.Errorf("bench: invalid stencil configuration %s", c.Describe())
	}
	if c.run == nil {
		c.run = c.engine.newRun(c.engine.Stencil().Point(c.nx, c.ny, c.tx, c.ty, c.sockets))
	}
	return c.run.invoke(simstencil.Seed(c.engine.Seed, c.nx, c.ny, c.tx, c.ty, c.sockets, inv)), nil
}

// StencilCase returns a real Jacobi case. Fresh ping-pong grids are
// allocated per invocation (process-level repetition); a non-positive
// threads falls back to the engine's parallelism, so thread count joins
// the tile shape as a tunable.
func (e *NativeEngine) StencilCase(nx, ny, tileX, tileY, threads int) Case {
	if threads <= 0 {
		threads = e.Threads
	}
	return &nativeStencilCase{engine: e, nx: nx, ny: ny, tx: tileX, ty: tileY, threads: threads}
}

type nativeStencilCase struct {
	engine  *NativeEngine
	nx, ny  int
	tx, ty  int
	threads int
}

func (c *nativeStencilCase) Key() string {
	return fmt.Sprintf("native-stencil/%dx%d/%dx%d/t%d", c.nx, c.ny, c.tx, c.ty, c.threads)
}

func (c *nativeStencilCase) Config() Config {
	return StencilConfig{NX: c.nx, NY: c.ny, TileX: c.tx, TileY: c.ty, Sockets: 1, Threads: c.threads}
}

func (c *nativeStencilCase) Describe() string {
	return fmt.Sprintf("grid=%dx%d tile=%dx%d threads=%d", c.nx, c.ny, c.tx, c.ty, c.threads)
}

func (c *nativeStencilCase) Metric() Metric { return MetricFlops }

func (c *nativeStencilCase) NewInvocation(inv int) (Instance, error) {
	if c.nx < 3 || c.ny < 3 {
		return nil, fmt.Errorf("bench: stencil grid %dx%d too small", c.nx, c.ny)
	}
	if c.tx <= 0 || c.ty <= 0 {
		return nil, fmt.Errorf("bench: invalid stencil tile %dx%d", c.tx, c.ty)
	}
	src := stencil.NewGrid(c.nx, c.ny)
	dst := stencil.NewGrid(c.nx, c.ny)
	// A deterministic interior perturbation varying per invocation, so
	// repeated invocations model fresh process state.
	for i := range src.Data {
		src.Data[i] += float64((i+inv)%5) * 1e-3
	}
	return &nativeStencilInstance{c: c, src: src, dst: dst, pool: parallel.NewPool(c.threads)}, nil
}

type nativeStencilInstance struct {
	c        *nativeStencilCase
	src, dst *stencil.Grid
	pool     *parallel.Pool
}

func (i *nativeStencilInstance) run() {
	stencil.Jacobi5Tiled(i.dst, i.src, i.c.tx, i.c.ty, i.pool)
	i.src, i.dst = i.dst, i.src
}

func (i *nativeStencilInstance) Warmup() { i.run() }

func (i *nativeStencilInstance) Step() time.Duration {
	return vclock.Time(i.run)
}

func (i *nativeStencilInstance) Work() float64 { return i.src.Flops() }

func (i *nativeStencilInstance) Close() {
	i.pool.Close()
	i.src, i.dst = nil, nil
}
