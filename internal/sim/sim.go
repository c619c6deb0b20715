// Package sim assembles complete simulated machines for the paper's four
// target architectures (§6.3): the base SMT processor, SRT (redundant
// threads on one core), lockstepped cores (Lock0/Lock8), and CRT (redundant
// threads across the two cores of a CMP), and runs budgeted simulations.
package sim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/rmt"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Mode selects the machine organisation.
type Mode int

// Machine organisations.
const (
	// ModeBase is the unprotected base SMT processor: one hardware thread
	// per logical program.
	ModeBase Mode = iota
	// ModeBase2 runs two independent copies of each program as separate
	// hardware threads with no input replication or output comparison
	// (Figure 6's "Base2" reference point).
	ModeBase2
	// ModeSRT runs each program as a leading/trailing redundant pair on
	// one core.
	ModeSRT
	// ModeLockstep models two cycle-synchronised cores with a central
	// checker. Because the two lockstepped cores are cycle-identical by
	// construction, the model simulates one core and charges the checker
	// interposition penalties (cache-miss path and store-exit path); see
	// DESIGN.md.
	ModeLockstep
	// ModeCRT runs leading and trailing copies on different cores of a
	// two-way CMP, cross-coupled for multiprogram workloads (Figure 5).
	ModeCRT
	// ModeSRTR extends SRT with recovery (after Vijaykumar et al.'s SRTR):
	// every retired register result is cross-checked through a register
	// value queue, machine state is checkpointed at a fixed cycle interval,
	// and a checkpoint becomes a valid rollback target once the trailing
	// copy has validated everything it captured. On detection the machine
	// rolls back and re-executes instead of halting.
	ModeSRTR
	// ModeAdaptive is SRT with partial redundancy: a static per-PC
	// protection table derived from the ACE/liveness vulnerability profile
	// gates which instructions enter the sphere of replication. Low-
	// vulnerability regions run untagged (no LVQ/comparator traffic — the
	// slack this buys is the point), trading detection coverage there.
	ModeAdaptive
)

func (m Mode) String() string {
	switch m {
	case ModeBase:
		return "base"
	case ModeBase2:
		return "base2"
	case ModeSRT:
		return "srt"
	case ModeLockstep:
		return "lockstep"
	case ModeCRT:
		return "crt"
	case ModeSRTR:
		return "srtr"
	case ModeAdaptive:
		return "adaptive"
	}
	return "mode?"
}

// Modes returns every machine organisation, in declaration order. Seam
// exhaustiveness tests (cliflags, rmtd wire contract, fault matrix) range
// over this so a future mode cannot silently miss a layer.
func Modes() []Mode {
	return []Mode{ModeBase, ModeBase2, ModeSRT, ModeLockstep, ModeCRT, ModeSRTR, ModeAdaptive}
}

// Spec describes one simulation.
type Spec struct {
	Mode     Mode
	Programs []string
	// Budget is measured committed instructions per logical program (per
	// leading copy), not counting warmup.
	Budget uint64
	// Warmup is committed instructions executed before measurement starts
	// (caches and predictors warm; statistics reset), as in §6.2.
	Warmup uint64

	Config pipeline.Config

	// PSR enables preferential space redundancy (§4.5). The paper enables
	// it for all results after Figure 7.
	PSR bool
	// PerThreadSQ gives each hardware thread a private store queue (§4.2).
	PerThreadSQ bool
	// NoStoreComparison disables output comparison (Figure 6's SRT+nosc).
	NoStoreComparison bool
	// CheckerLatency is the lockstep checker delay (0 = Lock0, 8 = Lock8).
	CheckerLatency uint64
	// SlackFetch enables the original-SRT slack fetch policy (ablation).
	SlackFetch uint64

	// StopOnDetection ends the run at the first detected fault. In SRTR
	// mode a detection first triggers rollback; the run only stops on a
	// detection the machine cannot recover from.
	StopOnDetection bool

	// CheckpointInterval is the SRTR checkpoint capture period in cycles
	// (0 = 1024, the fault engine's snapshot grid). Checkpoints are taken
	// on absolute multiples of the interval so independently built and
	// mid-flight-restored machines capture at identical cycles.
	CheckpointInterval uint64
	// MaxRecoveries bounds rollbacks per run (0 = 8); past it, detections
	// behave as in SRT.
	MaxRecoveries int
	// AdaptiveThreshold is the ModeAdaptive protection cutoff θ in [0,1]:
	// an instruction is protected iff its normalised live-in register
	// count reaches θ and its destination is not provably masked. θ <= 0
	// protects everything (bit-identical to SRT).
	AdaptiveThreshold float64

	// MaxCycles caps the run (0 = derived from the budget).
	MaxCycles uint64
}

// Machine is an assembled simulation ready to run.
type Machine struct {
	*pipeline.Machine
	Spec Spec
	// Leads holds, per logical program, the measured copy's context.
	Leads []*pipeline.Context
	// Trails holds the trailing contexts (nil entries for non-redundant
	// modes).
	Trails []*pipeline.Context
	// Devices holds each logical program's memory-mapped pseudo-device
	// (uncached LDIO/STIO traffic), indexed like Leads.
	Devices []*vm.PseudoDevice

	// Metrics, when non-nil, is the observability registry built by
	// EnableMetrics.
	Metrics *metrics.Registry
	// Events, when non-nil, is the structured event log attached by
	// EnableTrace.
	Events *trace.EventLog

	// bridges holds each logical program's uncached-load replication bridge
	// (nil entries for non-redundant modes), indexed like Leads. Snapshots
	// capture its queued (addr, value) stream.
	bridges []*ioBridge

	// snapHint remembers the last snapshot's (or restored stream's) encoded
	// size so the next snapshot preallocates its buffer instead of growing
	// into it.
	snapHint int

	// Recoveries and RecoveryCycles account SRTR rollbacks: how many the
	// run performed and the total cycles re-executed (trigger cycle minus
	// restored checkpoint cycle, summed). Engine-level run accounting,
	// deliberately outside snapshots: a rolled-back machine is
	// byte-identical to the fault-free one, and these fields are the only
	// record that a recovery happened.
	Recoveries     int
	RecoveryCycles uint64
}

// Build assembles the machine described by spec.
func Build(spec Spec) (*Machine, error) {
	if len(spec.Programs) == 0 {
		return nil, fmt.Errorf("sim: no programs")
	}
	cfg := spec.Config
	cfg.PerThreadSQ = spec.PerThreadSQ
	cfg.NoStoreComparison = spec.NoStoreComparison
	cfg.SlackFetch = spec.SlackFetch
	if spec.Mode == ModeLockstep {
		cfg.Hier.CheckerMissPenalty = spec.CheckerLatency
		cfg.CheckerStorePenalty = spec.CheckerLatency
	}

	m := &Machine{
		Machine: &pipeline.Machine{StopOnDetection: spec.StopOnDetection},
		Spec:    spec,
	}

	switch spec.Mode {
	case ModeBase, ModeLockstep:
		core := pipeline.NewCore(0, cfg, nil)
		m.Cores = append(m.Cores, core)
		for i, name := range spec.Programs {
			ctx, err := newSingle(name, i, spec)
			if err != nil {
				return nil, err
			}
			core.AddContext(ctx)
			m.Leads = append(m.Leads, ctx)
			m.Trails = append(m.Trails, nil)
		}
		core.FinalizeQueues()

	case ModeBase2:
		core := pipeline.NewCore(0, cfg, nil)
		m.Cores = append(m.Cores, core)
		// Two independent copies per program, each with its own memory
		// image (no replication or comparison couples them).
		progID := 0
		for _, name := range spec.Programs {
			lead, err := newSingle(name, progID, spec)
			if err != nil {
				return nil, err
			}
			copy2, err := newSingle(name, progID+1, spec)
			if err != nil {
				return nil, err
			}
			progID += 2
			core.AddContext(lead)
			core.AddContext(copy2)
			m.Leads = append(m.Leads, lead)
			m.Trails = append(m.Trails, nil)
		}
		core.FinalizeQueues()

	case ModeSRT, ModeSRTR, ModeAdaptive:
		core := pipeline.NewCore(0, cfg, nil)
		m.Cores = append(m.Cores, core)
		for i, name := range spec.Programs {
			lead, trail, pair, err := newPair(name, i, spec, rmt.SRTLatencies(), cfg)
			if err != nil {
				return nil, err
			}
			switch spec.Mode {
			case ModeSRTR:
				pair.RVQ = rmt.NewRVQ(cfg.RVQSize)
			case ModeAdaptive:
				tbl, err := adaptiveTable(name, spec.AdaptiveThreshold)
				if err != nil {
					return nil, err
				}
				pair.Protect = tbl
			}
			core.AddContext(lead)
			core.AddContext(trail)
			bindPair(pair, 0, lead, 0, trail)
			m.Pairs = append(m.Pairs, pair)
			m.Leads = append(m.Leads, lead)
			m.Trails = append(m.Trails, trail)
		}
		core.FinalizeQueues()

	case ModeCRT:
		core0 := pipeline.NewCore(0, cfg, nil)
		core1 := pipeline.NewCore(1, cfg, core0.Hierarchy().L2)
		m.Cores = append(m.Cores, core0, core1)
		if err := buildCRT(m, spec, cfg, core0, core1); err != nil {
			return nil, err
		}
		core0.FinalizeQueues()
		core1.FinalizeQueues()

	default:
		return nil, fmt.Errorf("sim: unknown mode %v", spec.Mode)
	}
	// Attach one pseudo-device per logical program for uncached I/O.
	for i := range m.Leads {
		dev := vm.NewPseudoDevice(0xD0000 + uint64(i))
		m.Devices = append(m.Devices, dev)
		var pair *rmt.Pair
		if i < len(m.Pairs) {
			pair = m.Pairs[i]
		}
		m.bridges = append(m.bridges, wireIO(dev, pair, m.Leads[i], m.Trails[i]))
	}
	return m, nil
}

// newSingle builds a non-redundant context for program name.
func newSingle(name string, progID int, spec Spec) (*pipeline.Context, error) {
	prog, err := progen.Build(name)
	if err != nil {
		return nil, err
	}
	memImg := vm.NewMemory()
	vm.Load(prog, memImg)
	arch := vm.NewThread(progID, prog, memImg)
	ctx := pipeline.NewContext(pipeline.RoleSingle, progID, arch, spec.Warmup+spec.Budget)
	ctx.Warmup = spec.Warmup
	return ctx, nil
}

// newPair builds leading and trailing contexts sharing one committed memory
// image, plus the RMT pair structures between them.
func newPair(name string, logical int, spec Spec, lat rmt.Latencies, cfg pipeline.Config) (lead, trail *pipeline.Context, pair *rmt.Pair, err error) {
	prog, err := progen.Build(name)
	if err != nil {
		return nil, nil, nil, err
	}
	memImg := vm.NewMemory()
	vm.Load(prog, memImg)
	leadArch := vm.NewThread(logical*2, prog, memImg)
	trailArch := vm.NewThread(logical*2+1, prog, memImg)
	lead = pipeline.NewContext(pipeline.RoleLeading, logical, leadArch, spec.Warmup+spec.Budget)
	lead.Warmup = spec.Warmup
	trail = pipeline.NewContext(pipeline.RoleTrailing, logical, trailArch, 0)
	lead.PeerArch = trailArch
	trail.PeerArch = leadArch
	pair = rmt.NewPair(logical, lat, cfg.LVQSize, cfg.LPQSize)
	pair.PreferentialSpaceRedundancy = spec.PSR
	lead.Pair = pair
	trail.Pair = pair
	return lead, trail, pair, nil
}

// bindPair records where the two copies live (after AddContext assigned
// TIDs).
func bindPair(pair *rmt.Pair, leadCore int, lead *pipeline.Context, trailCore int, trail *pipeline.Context) {
	pair.LeadCore, pair.LeadTID = leadCore, lead.TID
	pair.TrailCore, pair.TrailTID = trailCore, trail.TID
}

// buildCRT places redundant pairs across the two cores, cross-coupling the
// leading and trailing threads of different programs (Figure 5): with two
// programs, core 0 runs leading-A with trailing-B and core 1 runs leading-B
// with trailing-A; with four programs each core runs two leading threads of
// its own programs and the trailing threads of the other core's.
func buildCRT(m *Machine, spec Spec, cfg pipeline.Config, core0, core1 *pipeline.Core) error {
	n := len(spec.Programs)
	type built struct {
		lead, trail *pipeline.Context
		pair        *rmt.Pair
	}
	bs := make([]built, n)
	for i, name := range spec.Programs {
		lead, trail, pair, err := newPair(name, i, spec, rmt.CRTLatencies(), cfg)
		if err != nil {
			return err
		}
		bs[i] = built{lead, trail, pair}
		m.Pairs = append(m.Pairs, pair)
		m.Leads = append(m.Leads, lead)
		m.Trails = append(m.Trails, trail)
	}
	// Leading threads: first half on core 0, second half on core 1 (with
	// one program, the leading thread is alone on core 0).
	leadCore := func(i int) int {
		if i < (n+1)/2 {
			return 0
		}
		return 1
	}
	cores := []*pipeline.Core{core0, core1}
	// Add leading contexts first so they get low TIDs on each core.
	for i := range bs {
		cores[leadCore(i)].AddContext(bs[i].lead)
	}
	for i := range bs {
		tc := 1 - leadCore(i) // trailing thread on the other core
		cores[tc].AddContext(bs[i].trail)
		bindPair(bs[i].pair, leadCore(i), bs[i].lead, tc, bs[i].trail)
	}
	return nil
}

// Run executes the simulation to completion of all budgets. In SRTR mode
// the run is segmented by checkpoint boundaries and detections roll the
// machine back instead of ending it (see recovery.go).
func (m *Machine) Run() (*stats.RunStats, error) {
	maxCycles := m.Spec.MaxCycles
	if maxCycles == 0 {
		maxCycles = (m.Spec.Warmup+m.Spec.Budget)*60 + 500000
	}
	var rs *stats.RunStats
	var err error
	if m.Spec.Mode == ModeSRTR {
		rs, err = m.runSRTR(maxCycles)
	} else {
		rs, err = m.Machine.Run(maxCycles)
	}
	if err != nil {
		return rs, err
	}
	if !m.finishedAll() && !m.Spec.StopOnDetection {
		return rs, fmt.Errorf("sim: %v run hit the %d-cycle cap before all budgets completed", m.Spec.Mode, maxCycles)
	}
	return rs, nil
}

// finishedAll mirrors pipeline.Machine's completion rule: a context is
// done when its budget committed, or when its program halted first — a
// halting kernel that runs out of work before the budget is a completed
// run, not a cycle-cap failure.
func (m *Machine) finishedAll() bool {
	for _, c := range m.Leads {
		if c.Budget > 0 && c.FinishCycle == 0 && !c.Arch.Halted {
			return false
		}
	}
	return true
}

// BaseIPC runs each named program alone on the base machine and returns its
// IPC — the SMT-Efficiency denominator.
func BaseIPC(cfg pipeline.Config, warmup, budget uint64, names ...string) (map[string]float64, error) {
	out := make(map[string]float64, len(names))
	for _, name := range names {
		if _, done := out[name]; done {
			continue
		}
		m, err := Build(Spec{Mode: ModeBase, Programs: []string{name}, Warmup: warmup, Budget: budget, Config: cfg})
		if err != nil {
			return nil, err
		}
		rs, err := m.Run()
		if err != nil {
			return nil, err
		}
		out[name] = rs.LogicalIPC[0]
	}
	return out, nil
}
