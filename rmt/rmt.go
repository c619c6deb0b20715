// Package rmt is the public face of the simulator: build and run redundant
// multithreading machines, fan sweeps of independent simulations across
// worker goroutines, and regenerate the paper's evaluation — without
// touching the internal packages.
//
// A simulation is described by a Spec (which machine, which programs) and
// sized by functional options:
//
//	res, err := rmt.Run(ctx,
//		rmt.Spec{Mode: rmt.SRT, PSR: true, Programs: []string{"gcc"}},
//		rmt.WithBudget(30000), rmt.WithWarmup(20000))
//
// Sweeps of independent specs run in parallel and return results in input
// order, so output built from them is deterministic at any parallelism:
//
//	results, err := rmt.Sweep(ctx, specs, rmt.WithParallelism(4))
//
// Run, Sweep and Campaign are also available behind the Runner interface,
// satisfied both by the in-process engine (Local) and by Client (a remote
// rmtd daemon), so tools and tests can swap execution backends without
// changing call sites.
//
// The paper's tables and figures are exposed through Experiments().
package rmt

import (
	"bytes"
	"context"

	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Mode selects the machine organisation. It is internal/sim's mode type:
// names, parsing and which knobs each mode reads come from the
// simulator's one mode table. String spells a mode's name; Paired reports
// whether it runs each program as a leading/trailing pair, which Campaign
// requires.
type Mode = sim.Mode

// Machine organisations (see the package-level docs of internal/sim and
// DESIGN.md for the microarchitectural detail).
const (
	// Base is the unprotected base SMT processor.
	Base = sim.ModeBase
	// Base2 runs two independent copies of each program with no coupling
	// (Figure 6's reference point).
	Base2 = sim.ModeBase2
	// SRT runs each program as a leading/trailing redundant pair on one
	// core.
	SRT = sim.ModeSRT
	// Lockstep models two cycle-synchronised cores with a central
	// checker; CheckerLatency selects Lock0 vs Lock8.
	Lockstep = sim.ModeLockstep
	// CRT runs leading and trailing copies on different cores of a
	// two-way CMP, cross-coupled for multiprogram workloads.
	CRT = sim.ModeCRT
	// SRTR extends SRT with recovery: a register value queue cross-checks
	// every retired result, validated checkpoints are kept on a fixed
	// cycle grid, and a detected fault rolls the machine back instead of
	// halting it.
	SRTR = sim.ModeSRTR
	// Adaptive is SRT with partial redundancy: instructions whose static
	// vulnerability falls below Spec.AdaptiveThreshold run outside the
	// sphere of replication (untagged, uncompared).
	Adaptive = sim.ModeAdaptive
)

// Modes lists every machine organisation, in mode-table order.
func Modes() []Mode { return sim.Modes() }

// ParseMode maps a mode name to its Mode — the inverse of Mode.String,
// shared by the cmd/ tools and rmtd.
func ParseMode(s string) (Mode, error) { return sim.ParseMode(s) }

// Spec selects a machine organisation and workload. Sizing (budget,
// warmup) and execution policy (parallelism) are supplied as Options, not
// mutated into the struct.
type Spec struct {
	Mode Mode
	// Programs names the workload kernels (see Kernels()); each runs as
	// one logical thread.
	Programs []string
	// PSR enables preferential space redundancy (§4.5). The paper
	// enables it for all results after Figure 7.
	PSR bool
	// PerThreadSQ gives each hardware thread a private store queue.
	PerThreadSQ bool
	// NoStoreComparison disables output comparison (Figure 6's SRT+nosc).
	NoStoreComparison bool
	// CheckerLatency is the lockstep checker delay in cycles (0 = Lock0,
	// 8 = Lock8). Ignored outside Lockstep mode.
	CheckerLatency uint64
	// AdaptiveThreshold is the Adaptive-mode protection cutoff θ in [0,1]:
	// instructions whose normalised static vulnerability falls below θ run
	// outside the sphere of replication. 0 protects everything (exactly
	// SRT). Ignored outside Adaptive mode.
	AdaptiveThreshold float64
	// CheckpointInterval is the SRTR checkpoint grid in cycles (0 = the
	// engine default, 1024). Ignored outside SRTR mode.
	CheckpointInterval uint64
}

// Canonical returns s with the knobs its mode does not read zeroed, as the
// mode table says. Specs with equal canonical forms produce equal Results,
// apart from the echoed Spec; rmtd keys its cache on this form.
func (s Spec) Canonical() Spec {
	c := s.toSim(0, 0).Canonical()
	s.CheckerLatency, s.AdaptiveThreshold, s.CheckpointInterval = c.CheckerLatency, c.AdaptiveThreshold, c.CheckpointInterval
	return s
}

// toSim converts s to the engine's spec for the default machine at the
// given sizes. Run and Campaign both build their machines from it.
func (s Spec) toSim(budget, warmup uint64) sim.Spec {
	return sim.Spec{
		Mode:               s.Mode,
		Programs:           s.Programs,
		Budget:             budget,
		Warmup:             warmup,
		Config:             pipeline.DefaultConfig(),
		PSR:                s.PSR,
		PerThreadSQ:        s.PerThreadSQ,
		NoStoreComparison:  s.NoStoreComparison,
		CheckerLatency:     s.CheckerLatency,
		AdaptiveThreshold:  s.AdaptiveThreshold,
		CheckpointInterval: s.CheckpointInterval,
	}
}

// config collects the option-controlled execution parameters.
type config struct {
	// Options is the run policy WithParallelism, WithProgress and
	// WithReport set; Sweep and Campaign add ctx's cancellation.
	runner.Options

	budget   uint64 // 0 = default
	warmup   uint64 // 0 = default
	quick    bool
	metrics  bool
	trace    bool
	traceCap int

	checkpointEvery uint64
	checkpointSink  func(cycle uint64, snapshot []byte) error
	resume          []byte
}

// Default sizes for Run/Sweep/BaseIPC when no WithBudget/WithWarmup option
// is given, chosen for interactive cost. They do not reach steady state:
// the window sits in most kernels' first, cold sweep over their data.
const (
	DefaultBudget uint64 = 30000
	DefaultWarmup uint64 = 20000
)

func newConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

func (c config) sizes() (budget, warmup uint64) {
	budget, warmup = DefaultBudget, DefaultWarmup
	if c.quick {
		budget, warmup = 8000, 5000
	}
	if c.budget > 0 {
		budget = c.budget
	}
	if c.warmup > 0 {
		warmup = c.warmup
	}
	return budget, warmup
}

// Option configures Run, Sweep, BaseIPC and Experiment.Run.
type Option func(*config)

// WithBudget sets the measured committed instructions per logical thread.
func WithBudget(b uint64) Option { return func(c *config) { c.budget = b } }

// WithWarmup sets the warmup instructions executed before measurement.
func WithWarmup(w uint64) Option { return func(c *config) { c.warmup = w } }

// WithParallelism caps the worker goroutines a sweep fans its independent
// simulations across. n <= 0 selects runtime.GOMAXPROCS(0); 1 runs
// serially. Results never depend on this value.
func WithParallelism(n int) Option { return func(c *config) { c.Parallelism = n } }

// WithQuick selects the cut-down experiment sizes used by tests and smoke
// runs. Explicit WithBudget/WithWarmup still win.
func WithQuick() Option { return func(c *config) { c.quick = true } }

// WithProgress installs a callback receiving (done, total) job counts as a
// sweep advances. Calls are serialized.
func WithProgress(fn func(done, total int)) Option { return func(c *config) { c.Progress = fn } }

// WithReport installs a callback receiving each sweep's timing Report,
// once the sweep ends, whether or not it failed.
func WithReport(fn func(Report)) Option { return func(c *config) { c.OnReport = fn } }

// WithMetrics attaches the observability metrics registry to each
// simulation: every pipeline structure's counters and occupancy histograms
// are sampled and exported as an end-of-run JSON snapshot in
// Result.MetricsJSON. The export is byte-identical at any parallelism.
func WithMetrics() Option { return func(c *config) { c.metrics = true } }

// WithTrace attaches a structured cycle-event trace to each simulation and
// exports it in Chrome trace_event JSON (Perfetto-loadable) in
// Result.TraceJSON. cap bounds the stored event count (0 = default); the
// export is byte-identical at any parallelism. Tracing long runs is
// memory-hungry: prefer small budgets.
func WithTrace(cap int) Option {
	return func(c *config) {
		c.trace = true
		c.traceCap = cap
	}
}

// WithCheckpoint serializes the complete machine state every `every`
// cycles and hands each snapshot to sink. A snapshot restored with Resume
// (under the same Spec and sizing options) continues the run with
// cycle-identical results to the uninterrupted simulation. sink errors
// abort the run and are returned verbatim, so a caller's sentinel survives
// errors.Is; every == 0 disables checkpointing. Local engine only: the
// option is ignored by Client.
func WithCheckpoint(every uint64, sink func(cycle uint64, snapshot []byte) error) Option {
	return func(c *config) {
		c.checkpointEvery = every
		c.checkpointSink = sink
	}
}

// Resume makes Run continue from a snapshot produced by WithCheckpoint
// instead of starting fresh. The caller must pass the same Spec and sizing
// options the snapshot was taken under; mismatched machine geometry is
// rejected. Snapshots in an earlier encoding version (those written before
// caches and predictor tables were encoded sparsely) are rejected too; take
// a new checkpoint. Local engine only.
func Resume(snapshot []byte) Option {
	return func(c *config) { c.resume = snapshot }
}

// Report describes how a sweep or campaign spent its time: jobs
// submitted and run, the resolved worker count, wall time and summed
// per-job (busy) time. It is internal/runner's report, so the figure
// sweeps, campaigns and Sweep all report through one type.
type Report = runner.Report

// PairChecks aggregates one redundant pair's sphere-of-replication
// activity: everything that crossed the boundary was replicated on the way
// in and compared on the way out.
type PairChecks struct {
	// StoresCompared counts output comparisons at the store comparator;
	// StoreMismatches counts detected divergences (0 in fault-free runs).
	StoresCompared, StoreMismatches uint64
	// LoadsReplicated counts leading-load values forwarded to the
	// trailing copy through the load value queue.
	LoadsReplicated uint64
	// FetchChunksSent counts fetch chunks steered through the line
	// prediction queue.
	FetchChunksSent uint64
	// LeadCore and TrailCore locate the two copies (they differ under
	// CRT).
	LeadCore, TrailCore int
	// SameHalfFrac and SameFUFrac measure space redundancy: the fraction
	// of corresponding instruction pairs sharing an issue-queue half or
	// functional unit.
	SameHalfFrac, SameFUFrac float64
}

// Result is one simulation's outcome.
type Result struct {
	// Spec echoes the input.
	Spec Spec
	// Cycles is the simulated cycle count.
	Cycles uint64
	// IPC holds, per logical program, the measured copy's committed
	// instructions per cycle, in Spec.Programs order. Base2 runs two
	// independent copies of each program and carries an entry for each,
	// side by side: program i's measured copy is entry 2i, and the list is
	// twice as long as Spec.Programs.
	IPC []float64
	// StoreLifetime holds, per logical program, the mean cycles a
	// (leading) store spends in the store queue.
	StoreLifetime []float64
	// Checks holds, per redundant pair, the sphere-of-replication
	// activity. Empty for non-redundant modes.
	Checks []PairChecks
	// MetricsJSON is the end-of-run metrics snapshot (WithMetrics only):
	// every registered counter, gauge and histogram, sorted by key.
	MetricsJSON []byte
	// TraceJSON is the structured event trace in Chrome trace_event JSON
	// (WithTrace only), loadable in Perfetto / chrome://tracing.
	TraceJSON []byte
}

// Run executes the single simulation described by spec. Cancelling ctx
// aborts the run between simulated cycles with the context's error.
func Run(ctx context.Context, spec Spec, opts ...Option) (*Result, error) {
	return runOne(ctx, spec, newConfig(opts))
}

// Sweep executes the independent simulations described by specs across a
// worker pool and returns their results in input order — byte-identical
// assembly at any parallelism. The first failure cancels unstarted jobs;
// cancelling ctx cancels them too and aborts running simulations between
// simulated cycles.
func Sweep(ctx context.Context, specs []Spec, opts ...Option) ([]*Result, error) {
	c := newConfig(opts)
	c.Cancel = ctx.Err
	jobs := make([]func() (*Result, error), len(specs))
	for i := range specs {
		s := specs[i]
		jobs[i] = func() (*Result, error) { return runOne(ctx, s, c) }
	}
	results, _, err := runner.Run(jobs, c.Options)
	return results, err
}

// BaseIPC runs each named program alone on the unprotected base machine —
// the SMT-Efficiency denominator — fanning the reference runs across
// workers.
func BaseIPC(ctx context.Context, programs []string, opts ...Option) (map[string]float64, error) {
	var names []string
	seen := map[string]bool{}
	for _, n := range programs {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	specs := make([]Spec, len(names))
	for i, n := range names {
		specs[i] = Spec{Mode: Base, Programs: []string{n}}
	}
	results, err := Sweep(ctx, specs, opts...)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for i, n := range names {
		out[n] = results[i].IPC[0]
	}
	return out, nil
}

// Kernels lists the workload suite: the paper's 18 SPEC CPU95-analog
// kernels, sorted. Generated kernels ("gen:<seed>", see KnownKernel) are
// unbounded in number and not enumerated here.
func Kernels() []string { return program.Names() }

// KnownKernel reports whether name resolves to a runnable workload:
// either one of the registry kernels listed by Kernels(), or a generated
// kernel addressed by its canonical "gen:<seed>" name. Every Spec.Programs
// entry accepted here runs identically in single runs, multi-program
// mixes, fault campaigns, and rmtd requests.
func KnownKernel(name string) bool { return progen.Known(name) }

func runOne(ctx context.Context, spec Spec, c config) (*Result, error) {
	simSpec := spec.toSim(c.sizes())
	var m *sim.Machine
	var err error
	if c.resume != nil {
		m, err = sim.Restore(simSpec, c.resume)
	} else {
		m, err = sim.Build(simSpec)
	}
	if err != nil {
		return nil, err
	}
	if c.metrics {
		m.EnableMetrics()
	}
	if c.trace {
		m.EnableTrace(c.traceCap)
	}
	if ctx.Done() != nil || c.checkpointEvery > 0 {
		every, sink := c.checkpointEvery, c.checkpointSink
		m.OnCycle = func(cycle uint64) error {
			if cycle&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if every > 0 && cycle > 0 && cycle%every == 0 {
				snap, err := m.Snapshot()
				if err != nil {
					return err
				}
				return sink(cycle, snap)
			}
			return nil
		}
	}
	rs, err := m.Run()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Spec:   spec,
		Cycles: rs.Cycles,
		IPC:    rs.LogicalIPC,
	}
	if m.Metrics != nil {
		var buf bytes.Buffer
		if err := m.Metrics.Snapshot(rs.Cycles).WriteJSON(&buf); err != nil {
			return nil, err
		}
		res.MetricsJSON = buf.Bytes()
	}
	if m.Events != nil {
		var buf bytes.Buffer
		if err := m.Events.WriteChromeJSON(&buf); err != nil {
			return nil, err
		}
		res.TraceJSON = buf.Bytes()
	}
	for _, lead := range m.Leads {
		res.StoreLifetime = append(res.StoreLifetime, lead.Stats.StoreLifetime.Value())
	}
	for _, p := range m.Pairs {
		res.Checks = append(res.Checks, PairChecks{
			StoresCompared:  p.Cmp.Comparisons.Value(),
			StoreMismatches: p.Cmp.Mismatches.Value(),
			LoadsReplicated: p.LVQ.Pushes.Value(),
			FetchChunksSent: p.LPQ.Pushes.Value(),
			LeadCore:        p.LeadCore,
			TrailCore:       p.TrailCore,
			SameHalfFrac:    p.SameHalfFrac(),
			SameFUFrac:      p.SameFUFrac(),
		})
	}
	return res, nil
}
