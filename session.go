package rooftune

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rooftune/internal/bench"
	"rooftune/internal/core"
	"rooftune/internal/hw"
	"rooftune/internal/sweep"
	"rooftune/internal/units"
	"rooftune/internal/workload"
)

// settings is the resolved configuration of a Session. Options mutate it;
// New fills defaults and validates the final state.
type settings struct {
	// target
	sys       *hw.System
	native    bool
	targetSet bool

	seed        uint64
	budget      *bench.Budget
	space       []core.Dims
	spaceSet    bool
	threads     int
	llc         units.ByteSize
	triadLo     units.ByteSize
	triadHi     units.ByteSize
	triadLevels []string
	chain       bool
	spmvN       int
	spmvNNZ     int
	stencilNX   int
	stencilNY   int
	serial      bool
	hostPar     int
	progress    func(Event)
	workloads   []string
}

// Option configures a Session under construction. Options are applied in
// order; an option error aborts New immediately.
type Option func(*settings) error

// WithSystem targets the named simulated system. Known names: "2650v4",
// "2695v4", "Gold 6132", "Gold 6148", "Silver 4110", plus anything
// registered via hw.Register.
func WithSystem(name string) Option {
	return func(s *settings) error {
		sys, err := hw.Get(name)
		if err != nil {
			return err
		}
		return WithSystemSpec(sys)(s)
	}
}

// WithSystemSpec targets an explicit simulated system description. The
// description is validated: an internally inconsistent system errors here
// rather than producing a meaningless calibration.
func WithSystemSpec(sys hw.System) Option {
	return func(s *settings) error {
		if err := sys.Validate(); err != nil {
			return err
		}
		if s.targetSet {
			return fmt.Errorf("rooftune: target already set; WithSystem/WithSystemSpec/WithNative are mutually exclusive")
		}
		s.sys = &sys
		s.targetSet = true
		return nil
	}
}

// WithNative targets the host machine: the real pure-Go kernels measured
// with the wall clock. Native sessions always run their sweeps serially —
// concurrent wall-clock measurement would contend on the host.
func WithNative() Option {
	return func(s *settings) error {
		if s.targetSet {
			return fmt.Errorf("rooftune: target already set; WithSystem/WithSystemSpec/WithNative are mutually exclusive")
		}
		s.native = true
		s.targetSet = true
		return nil
	}
}

// WithSeed sets the simulated engines' noise seed (default 1021, the
// paper seed; 0 means the default).
func WithSeed(seed uint64) Option {
	return func(s *settings) error {
		s.seed = seed
		return nil
	}
}

// WithBudget sets the evaluation budget. The default is Table I with the
// paper's best technique (Confidence + Inner + Outer bounds), shrunk to
// interactive sizes on native targets.
func WithBudget(b bench.Budget) Option {
	return func(s *settings) error {
		s.budget = &b
		return nil
	}
}

// WithSpace sets the DGEMM search space. An empty space is rejected:
// there is nothing to tune. The default is the paper's union space for
// simulated targets and NativeQuickSpace for native ones.
func WithSpace(space []core.Dims) Option {
	return func(s *settings) error {
		if len(space) == 0 {
			return fmt.Errorf("rooftune: WithSpace: empty search space")
		}
		s.space = space
		s.spaceSet = true
		return nil
	}
}

// WithThreads sets the native engines' parallelism (default GOMAXPROCS;
// 0 means the default). Negative counts are rejected.
func WithThreads(threads int) Option {
	return func(s *settings) error {
		if threads < 0 {
			return fmt.Errorf("rooftune: WithThreads: negative thread count %d", threads)
		}
		s.threads = threads
		return nil
	}
}

// WithAssumedLLC sets the native target's last-level-cache estimate used
// to split the TRIAD sweep into cache and DRAM regions (default 32 MiB).
func WithAssumedLLC(size units.ByteSize) Option {
	return func(s *settings) error {
		s.llc = size
		return nil
	}
}

// WithTriadRange bounds the TRIAD working-set sweep (defaults: the
// paper's 3 KiB .. 768 MiB simulated, 3 KiB .. 256 MiB native; a zero
// bound keeps its default). Inverted bounds are rejected at New once
// defaults are resolved.
func WithTriadRange(lo, hi units.ByteSize) Option {
	return func(s *settings) error {
		s.triadLo, s.triadHi = lo, hi
		return nil
	}
}

// WithTriadLevels selects the cache-residency regions the TRIAD workload
// sweeps on a simulated system, any subset of L1, L2, L3 and DRAM (the
// default is the paper's published L3+DRAM pair). Each selected level
// lands its own bandwidth ceiling in Result.Memory — the §VII/CARM-style
// cache-aware roofline — and the levels of one socket configuration form
// a chain in increasing-bandwidth order (DRAM seeds L3 seeds L2 seeds
// L1) that WithSweepChaining can exploit. Unknown or duplicate level
// names are rejected here; combining with WithNative is rejected at New
// (the host's true cache boundaries are unknown — native builds keep the
// assumed-LLC cache/DRAM split).
func WithTriadLevels(levels ...string) Option {
	return func(s *settings) error {
		if err := hw.ValidateCacheLevels(levels); err != nil {
			return fmt.Errorf("rooftune: WithTriadLevels: %w", err)
		}
		s.triadLevels = levels
		return nil
	}
}

// WithSweepChaining enables (or disables — the default) the plan graph's
// SeedFrom edges: when a sweep's dependency finishes with a measured
// winner, the dependent sweep starts with its incumbent pre-seeded by
// that value, so stop condition 4 prunes from the very first case. The
// winning configurations and values are unchanged by chaining — a seed is
// a measured mean of the same metric, so it can only prune configurations
// already known to lose — only PrunedCount and TotalSamples move (toward
// more pruning, i.e. less search cost). Each seeding is announced as an
// EventSweepSeeded progress event; a chain ordered badly enough to prune
// a whole sweep surfaces through Result.Warnings via the BestPruned
// salvage path, exactly like a caller-supplied incumbent.
func WithSweepChaining(on bool) Option {
	return func(s *settings) error {
		s.chain = on
		return nil
	}
}

// WithSpMVShape sets the SpMV workload's synthetic matrix: an n x n CSR
// matrix with nnzPerRow stored elements per row (defaults: n = 262144
// simulated / 65536 native, nnzPerRow = 16; a zero keeps its default).
// The shape fixes the kernel's operational intensity, so changing it
// moves the SpMV point along the roofline's intensity axis.
func WithSpMVShape(n, nnzPerRow int) Option {
	return func(s *settings) error {
		if n < 0 || nnzPerRow < 0 {
			return fmt.Errorf("rooftune: WithSpMVShape: negative shape n=%d nnz/row=%d", n, nnzPerRow)
		}
		s.spmvN, s.spmvNNZ = n, nnzPerRow
		return nil
	}
}

// WithStencilGrid sets the stencil workload's grid dimensions (defaults:
// 2048x2048 simulated, 1024x1024 native; a zero keeps its default).
func WithStencilGrid(nx, ny int) Option {
	return func(s *settings) error {
		if nx < 0 || ny < 0 {
			return fmt.Errorf("rooftune: WithStencilGrid: negative grid %dx%d", nx, ny)
		}
		s.stencilNX, s.stencilNY = nx, ny
		return nil
	}
}

// WithSerial disables concurrent sweep execution on simulated targets:
// it is a host-parallelism budget of one, so the session is fully
// single-threaded. Every sweep owns its engine, clock and noise streams,
// so parallel results are bit-identical to serial ones (asserted by
// TestSimulatedParallelDeterminism); WithSerial exists for debugging.
func WithSerial() Option {
	return func(s *settings) error {
		s.serial = true
		return nil
	}
}

// WithProgress installs a live progress callback. Events arrive from the
// sweeps as they execute; each Run fans them into one buffered channel
// drained by a single goroutine, so fn needs no locking of its own and is
// off the sweep workers' critical path — a briefly slow callback only
// costs buffer space, though a persistently slow one eventually
// back-pressures the sweeps. Within one Run, events are delivered one at
// a time in the order they were emitted (case-evaluated events from
// concurrent sweeps interleave in completion order). The drainer is
// closed and joined before Run returns, so no event arrives after Run; a
// Session executes one Run at a time (see ErrConcurrentRun), so the
// callback never observes two runs' events interleaved.
func WithProgress(fn func(Event)) Option {
	return func(s *settings) error {
		s.progress = fn
		return nil
	}
}

// WithHostParallelism caps the total host parallelism the session's run
// assumes it owns (default: GOMAXPROCS, i.e. the whole machine; 0 keeps
// the default): at most that many sweeps run at once. N sessions sharing
// one host under a serving tier's budget (each handed roughly
// GOMAXPROCS/N) divide the machine instead of oversubscribing it N-fold.
// The cap never changes a simulated target's Result — concurrent sweep
// schedules are bit-identical to serial by construction — so it is
// deliberately excluded from Fingerprint. On native targets it also
// bounds the default kernel thread count when WithThreads is unset.
// Negative caps are rejected.
func WithHostParallelism(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("rooftune: WithHostParallelism: negative parallelism %d", n)
		}
		s.hostPar = n
		return nil
	}
}

// WithWorkloads selects which registered workloads the session runs, in
// order (default: "dgemm", "triad"). Unknown names are rejected at New.
func WithWorkloads(names ...string) Option {
	return func(s *settings) error {
		if len(names) == 0 {
			return fmt.Errorf("rooftune: WithWorkloads: no workloads named")
		}
		s.workloads = names
		return nil
	}
}

// Session is a configured roofline build: a target (simulated system or
// the native host), a set of workloads, and the tuning parameters their
// sweeps run under. Sessions are created by New and executed by Run; a
// Session may be Run any number of times sequentially — every run plans
// fresh engines, so simulated runs with equal seeds are bit-identical
// (TestSessionRerunDeterministic). A Session executes at most one Run at
// a time: a second Run starting while another is in flight fails loudly
// with ErrConcurrentRun rather than silently double-running (on a native
// target two concurrent runs would contend on the wall clock and corrupt
// both measurements; a serving tier that wants concurrency creates one
// Session per job).
type Session struct {
	cfg       settings
	workloads []Workload
	// running guards the one-Run-at-a-time contract; see ErrConcurrentRun.
	running atomic.Bool
}

// ErrConcurrentRun is returned by Run when the Session is already
// executing another Run. Sessions are cheap to construct — callers that
// need concurrent tuning runs build one Session per run instead of
// sharing one (shared native runs would contend on the host wall clock,
// and shared progress streams would interleave unrelated runs' events).
var ErrConcurrentRun = errors.New("rooftune: Session already has a Run in flight; create one Session per concurrent run")

// New builds a Session from functional options. It fails fast: unknown
// systems and workloads, inverted TRIAD bounds, negative thread counts
// and empty search spaces are construction errors, not degenerate sweeps
// discovered minutes into a run.
func New(opts ...Option) (*Session, error) {
	var s settings
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return nil, err
		}
	}
	if !s.targetSet {
		return nil, fmt.Errorf("rooftune: no target: pass WithSystem, WithSystemSpec or WithNative")
	}
	if s.seed == 0 {
		s.seed = 1021
	}
	if s.budget == nil {
		b := bench.DefaultBudget().WithFlags(true, true, true)
		if s.native {
			b.Invocations = 3
			b.MaxIterations = 30
			b.MaxTime = 2 * time.Second
		}
		s.budget = &b
	}
	if !s.spaceSet {
		if s.native {
			s.space = NativeQuickSpace()
		} else {
			s.space = core.UnionDGEMMSpace()
		}
	}
	if s.llc == 0 {
		s.llc = 32 * units.MiB
	}
	if s.triadLo == 0 {
		s.triadLo = 3 * units.KiB
	}
	if s.triadHi == 0 {
		if s.native {
			s.triadHi = 256 * units.MiB
		} else {
			s.triadHi = 768 * units.MiB
		}
	}
	if s.triadLo > s.triadHi {
		return nil, fmt.Errorf("rooftune: inverted TRIAD working-set bounds (lo %v > hi %v)", s.triadLo, s.triadHi)
	}
	if s.spmvN == 0 {
		if s.native {
			s.spmvN = 1 << 16
		} else {
			s.spmvN = 1 << 18
		}
	}
	if s.spmvNNZ == 0 {
		s.spmvNNZ = 16
	}
	if s.spmvNNZ > s.spmvN {
		return nil, fmt.Errorf("rooftune: SpMV nnz/row %d exceeds matrix dimension %d", s.spmvNNZ, s.spmvN)
	}
	if s.stencilNX == 0 {
		s.stencilNX = 2048
		if s.native {
			s.stencilNX = 1024
		}
	}
	if s.stencilNY == 0 {
		s.stencilNY = 2048
		if s.native {
			s.stencilNY = 1024
		}
	}
	if s.stencilNX < 3 || s.stencilNY < 3 {
		return nil, fmt.Errorf("rooftune: stencil grid %dx%d too small for a 5-point stencil", s.stencilNX, s.stencilNY)
	}
	if s.native && len(s.triadLevels) > 0 {
		return nil, fmt.Errorf("rooftune: WithTriadLevels requires a simulated target: the host's cache boundaries are unknown (native builds use the assumed-LLC cache/DRAM split)")
	}
	if len(s.workloads) == 0 {
		s.workloads = []string{"dgemm", "triad"}
	}
	sess := &Session{cfg: s}
	for _, name := range s.workloads {
		w, err := workload.Get(name)
		if err != nil {
			return nil, fmt.Errorf("rooftune: %w", err)
		}
		sess.workloads = append(sess.workloads, w)
	}
	// Validate the assembled plan graph now, while the caller can still
	// react: a custom workload with duplicate IDs, a dangling or cyclic
	// SeedFrom edge, or a cross-metric edge fails here, not minutes into
	// a run. Simulated planning is pure and cheap; native planning builds
	// a real engine and synthesises kernel inputs, so native sessions
	// defer the same check to the start of Run (still before any sweep
	// executes).
	if !s.native {
		if _, _, err := sess.plan(workload.Target{Sys: s.sys}, &Result{}, func(Event) {}); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// plan resolves every workload's contribution for the target: it runs
// each Plan, attributes and emits empty-region warnings, and validates
// the assembled plan graph (unique IDs, resolvable acyclic SeedFrom
// edges, same-metric chains) before anything executes. It is shared by
// New (construction-time validation on simulated targets) and Run.
func (s *Session) plan(target workload.Target, res *Result, emit func(Event)) ([]sweep.Node, []Point, error) {
	params := workload.Params{
		Seed:          s.cfg.seed,
		Space:         s.cfg.space,
		TriadLo:       s.cfg.triadLo,
		TriadHi:       s.cfg.triadHi,
		TriadLevels:   s.cfg.triadLevels,
		AssumedLLC:    s.cfg.llc,
		Threads:       s.cfg.threads,
		SpMVN:         s.cfg.spmvN,
		SpMVNNZPerRow: s.cfg.spmvNNZ,
		StencilNX:     s.cfg.stencilNX,
		StencilNY:     s.cfg.stencilNY,
	}
	var (
		nodes  []sweep.Node
		points []Point
	)
	for _, w := range s.workloads {
		plan, err := w.Plan(target, params)
		if err != nil {
			return nil, nil, fmt.Errorf("rooftune: workload %s: %w", w.Name(), err)
		}
		for _, warning := range plan.Warnings {
			// Attribute the line to the workload that planned the region:
			// a bare region name is ambiguous once several workloads plan
			// sweeps into one session.
			attributed := fmt.Sprintf("workload %s: %s", w.Name(), warning)
			res.Warnings = append(res.Warnings, attributed)
			emit(Event{Kind: EventRegionEmpty, Workload: w.Name(), Warning: attributed})
		}
		for _, pl := range plan.Sweeps {
			nodes = append(nodes, sweep.Node{ID: pl.ID, SeedFrom: pl.SeedFrom, Spec: pl.Spec})
			points = append(points, pl.Point)
		}
	}
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("rooftune: every planned sweep is empty: %v", res.Warnings)
	}
	if err := sweep.ValidatePlan(nodes); err != nil {
		return nil, nil, fmt.Errorf("rooftune: invalid plan graph: %w", err)
	}
	return nodes, points, nil
}

// Run plans every workload's sweeps, executes the plan graph, and
// assembles the tuned roofline. Cancelling ctx aborts the run between
// kernel executions and returns ctx.Err(); no partial Result is produced,
// and no sweep goroutine outlives the call. A Run that starts while
// another Run of the same Session is still in flight fails immediately
// with ErrConcurrentRun; sequential re-runs are always allowed and,
// on simulated targets, bit-identical. Run is RunDist with no executor:
// every node runs in-process.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	return s.runPlan(ctx, nil)
}

// execute is the one execution path behind Run, RunDist and RunNode. It
// enforces the one-Run-at-a-time guard, starts the progress drainer,
// plans the target (stripping the graph's SeedFrom edges unless
// chaining is on), builds the runner and hands it to fn. A failure of
// fn is reported as the bare ctx.Err() when it is the cancellation,
// otherwise with the package prefix. It returns the Result header and
// the plan's points for assembly.
func (s *Session) execute(ctx context.Context, fn func(context.Context, *sweep.Runner, []sweep.Node) error) (*Result, []Point, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.running.CompareAndSwap(false, true) {
		return nil, nil, ErrConcurrentRun
	}
	defer s.running.Store(false)
	emit, stopEvents := s.startEvents()
	// Every sweep goroutine is joined before fn returns, so by the time
	// this defer closes the channel no sender remains; the join inside
	// stopEvents delivers the last event before the caller returns.
	defer stopEvents()

	target, res := s.target()
	nodes, points, err := s.plan(target, res, emit)
	if err != nil {
		return nil, nil, err
	}
	if !s.cfg.chain {
		// The graph was validated with its edges; without chaining every
		// sweep runs unseeded, exactly as the flat execution model did.
		for i := range nodes {
			nodes[i].SeedFrom = ""
		}
	}
	if err := fn(ctx, s.newRunner(nodes, emit), nodes); err != nil {
		// Report a cancellation as the bare ctx.Err(); a genuine engine
		// failure that merely raced with cancellation keeps its
		// diagnostic (it still satisfies errors.Is(err, ctx.Err())
		// when the failure IS the cancellation, since the sweep layer
		// wraps with %w).
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return nil, nil, cerr
		}
		return nil, nil, fmt.Errorf("rooftune: %w", err)
	}
	return res, points, nil
}

// newRunner builds the sweep runner every Run entry point (Run, RunDist,
// RunNode) executes through: one place owns the budget, host budget
// and hook wiring, so a distributed run's per-node execution is
// the exact machinery a local run uses.
func (s *Session) newRunner(nodes []sweep.Node, emit func(Event)) *sweep.Runner {
	runner := &sweep.Runner{
		Budget: *s.cfg.budget,
		Host:   s.cfg.hostPar,
	}
	if s.cfg.serial || s.cfg.native {
		// Native measurement is wall-clock: concurrent sweeps would
		// contend on the host.
		runner.Host = 1
	}
	if s.cfg.progress != nil {
		// Seeding events name sweeps, not node IDs, and report the seed
		// in the sweep's reporting unit.
		byID := make(map[string]sweep.Node, len(nodes))
		for _, n := range nodes {
			byID[n.ID] = n
		}
		runner.Hooks = sweep.Hooks{
			SweepStarted: func(name string, cases int) {
				emit(Event{Kind: EventSweepStarted, Sweep: name, Cases: cases})
			},
			CaseEvaluated: func(sweepName string, out *bench.Outcome) {
				emit(Event{
					Kind:   EventCaseEvaluated,
					Sweep:  sweepName,
					Case:   out.Describe,
					Value:  out.Metric.Scale(out.Mean),
					Unit:   out.Metric.Unit(),
					Pruned: out.Pruned,
				})
			},
			SweepWon: func(o *sweep.Outcome) {
				ev := Event{Kind: EventSweepWon, Sweep: o.Name, Elapsed: o.Result.Elapsed}
				if o.Result.Best != nil {
					ev.Case = o.Result.Best.Describe
					ev.Value = o.Result.Best.Metric.Scale(o.BestValue())
					ev.Unit = o.Result.Best.Metric.Unit()
				}
				emit(ev)
			},
			SweepSeeded: func(id, from string, value float64) {
				to, src := byID[id], byID[from]
				ev := Event{Kind: EventSweepSeeded, Sweep: to.Spec.Name, From: src.Spec.Name, Value: value}
				if len(to.Spec.Cases) > 0 {
					m := to.Spec.Cases[0].Metric()
					ev.Value = m.Scale(value)
					ev.Unit = m.Unit()
				}
				emit(ev)
			},
		}
	}
	return runner
}

// target resolves the session's tuning target and the Result header that
// describes it. Engines are created here, per Run, never cached: a fresh
// native engine per run keeps thread pools from leaking across runs, and
// simulated engines are created inside each planned sweep anyway.
func (s *Session) target() (workload.Target, *Result) {
	if s.cfg.native {
		threads := s.cfg.threads
		if threads == 0 && s.cfg.hostPar > 0 {
			// The host-parallelism budget bounds the default kernel
			// thread count too; an explicit WithThreads still wins.
			threads = s.cfg.hostPar
		}
		eng := bench.NewNativeEngine(threads)
		return workload.Target{Native: eng}, &Result{SystemName: "host", Engine: eng.Name()}
	}
	sys := s.cfg.sys
	return workload.Target{Sys: sys}, &Result{SystemName: sys.Name, Engine: bench.SimEngineName(*sys)}
}

// assembleResult turns the sweeps' typed winners into Result points.
// Winning configurations come from bench.Config carried on the outcome —
// no key string is ever parsed, so a key-format change can no longer
// silently zero the reported dimensions. Compute-side winners dispatch on
// the configuration variant; an unknown variant is an assembly error
// (the config round-trip test enumerates the bench.Config sum and fails
// before a user can hit this).
func assembleResult(res *Result, outs []sweep.Outcome, points []Point) (*Result, error) {
	for i, out := range outs {
		pt := points[i]
		if out.Result.BestPruned {
			// The sweep's every configuration was outer-pruned (a
			// pre-seeded incumbent above the sweep's best), so its
			// "winner" is the highest truncated partial mean — a salvage
			// value, not a measurement. Say so next to the numbers it
			// taints.
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"sweep %s: every configuration was outer-pruned; reporting the best truncated partial mean, not a measured winner", out.Name))
		}
		if pt.Compute {
			cp := ComputePoint{
				Label:       pt.Label,
				Sockets:     pt.Sockets,
				Config:      out.Best,
				Flops:       units.Flops(out.BestValue()),
				Intensity:   pt.Intensity,
				Theoretical: pt.TheoreticalFlops,
			}
			if cp.Label == "" {
				cp.Label = "DGEMM"
			}
			if out.Result.Best != nil {
				cp.Desc = out.Result.Best.Describe
			}
			switch cfg := out.Best.(type) {
			case bench.DGEMMConfig:
				cp.Dims = core.ConfigDims(cfg)
			case bench.SpMVConfig, bench.StencilConfig:
				// Identity carried generically by Config and Desc.
			default:
				return nil, fmt.Errorf("rooftune: sweep %s: compute winner has unsupported config %T", out.Name, out.Best)
			}
			res.Compute = append(res.Compute, cp)
		} else {
			cfg, err := out.Triad()
			if err != nil {
				return nil, fmt.Errorf("rooftune: %w", err)
			}
			res.Memory = append(res.Memory, MemoryPoint{
				Sockets:     pt.Sockets,
				Region:      pt.Region,
				Elements:    cfg.Elements,
				Bandwidth:   units.Bandwidth(out.BestValue()),
				Theoretical: pt.TheoreticalBandwidth,
			})
		}
		res.SearchTime += out.Result.Elapsed
	}
	res.Roofline = assembleRoofline(res)
	return res, nil
}

// EventKind classifies a progress event.
type EventKind int

// Event kinds.
const (
	// EventSweepStarted fires when one sweep's search begins.
	EventSweepStarted EventKind = iota
	// EventCaseEvaluated fires after each configuration's evaluation.
	EventCaseEvaluated
	// EventSweepWon fires when one sweep finishes with its winner.
	EventSweepWon
	// EventRegionEmpty warns, before any sweep runs, that a planned
	// residency region filtered to zero cases under the session's bounds:
	// the roofline will be missing that ceiling.
	EventRegionEmpty
	// EventSweepSeeded fires, in a chained run (WithSweepChaining), when
	// a sweep is released with its incumbent pre-seeded by a finished
	// dependency's winner: From names the source sweep and Value/Unit
	// carry the seed.
	EventSweepSeeded
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventSweepStarted:
		return "sweep-started"
	case EventCaseEvaluated:
		return "case-evaluated"
	case EventSweepWon:
		return "sweep-won"
	case EventRegionEmpty:
		return "region-empty"
	case EventSweepSeeded:
		return "sweep-seeded"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one live progress notification from a running session.
// Delivery is serialised; fields beyond Kind and Sweep are set per kind.
type Event struct {
	Kind EventKind
	// Sweep names the sweep (empty for EventRegionEmpty, whose region
	// never became a sweep — see Warning).
	Sweep string
	// From names the source sweep whose winner seeded Sweep's incumbent
	// (EventSweepSeeded).
	From string
	// Workload names the workload that planned the empty region
	// (EventRegionEmpty); the Warning text carries it too.
	Workload string
	// Cases is the sweep's search-space size (EventSweepStarted).
	Cases int
	// Case describes the evaluated configuration (EventCaseEvaluated) or
	// the winner (EventSweepWon).
	Case string
	// Value is the configuration's mean performance in Unit
	// (EventCaseEvaluated, EventSweepWon), or the seed bound
	// (EventSweepSeeded).
	Value float64
	// Unit is Value's reporting unit, "GFLOP/s" or "GB/s".
	Unit string
	// Pruned reports that the outer bound abandoned the configuration
	// (EventCaseEvaluated).
	Pruned bool
	// Elapsed is the sweep's total search time (EventSweepWon).
	Elapsed time.Duration
	// Warning is the full empty-region description (EventRegionEmpty).
	Warning string
}

// startEvents starts this Run's progress fan-in: emit enqueues an event
// on a buffered channel, and a single drainer goroutine delivers events
// to the WithProgress callback one at a time, in emission order. The
// channel decouples concurrent sweeps from the callback — a mutex
// straight into user code would serialise every sweep behind it. stop
// closes the channel and joins the drainer; Run defers it, so no event is
// delivered after Run returns. A nil callback costs one nil check.
func (s *Session) startEvents() (emit func(Event), stop func()) {
	fn := s.cfg.progress
	if fn == nil {
		return func(Event) {}, func() {}
	}
	ch := make(chan Event, eventBuffer)
	done := make(chan struct{})
	//rooflint:allow nogoroutine -- the documented per-Run event drainer; stop closes ch and joins it before Run returns
	go func() {
		defer close(done)
		// Within one Run this drainer is the sole deliverer, and the
		// one-Run-at-a-time guard means no other Run's drainer exists.
		for ev := range ch {
			fn(ev)
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(ch)
			<-done
		})
	}
	return func(ev Event) { ch <- ev }, stop
}

// eventBuffer is the per-Run progress channel capacity: deep enough that
// bursts of case-evaluated events from concurrent sweeps almost never
// block a sweep on the callback, small enough to bound memory and
// keep a stuck callback visible as back-pressure rather than unbounded
// growth.
const eventBuffer = 256
