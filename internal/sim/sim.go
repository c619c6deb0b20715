// Package sim assembles complete simulated machines for the paper's four
// target architectures (§6.3): the base SMT processor, SRT (redundant
// threads on one core), lockstepped cores (Lock0/Lock8), and CRT (redundant
// threads across the two cores of a CMP), and runs budgeted simulations.
package sim

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/rmt"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

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

	// StopOnDetection ends the run at the first detected fault. In SRTR
	// mode a detection first triggers rollback; the run only stops on a
	// detection the machine cannot recover from.
	StopOnDetection bool

	// CheckpointInterval is the SRTR checkpoint capture period in cycles
	// (0 = 1024, the fault engine's snapshot grid). Checkpoints are taken
	// on absolute multiples of the interval so independently built and
	// mid-flight-restored machines capture at identical cycles.
	CheckpointInterval uint64
	// AdaptiveThreshold is the ModeAdaptive protection cutoff θ in [0,1]:
	// an instruction is protected iff its normalised live-in register
	// count reaches θ and its destination is not provably masked. θ <= 0
	// protects everything (bit-identical to SRT).
	AdaptiveThreshold float64
}

// Machine is an assembled simulation ready to run.
type Machine struct {
	*pipeline.Machine
	Spec Spec //rmtsnap:skip — the build recipe; Restore takes it beside the stream
	// Leads holds, per logical program, the measured copy's context.
	Leads []*pipeline.Context //rmtsnap:skip — wiring into the pipeline, which snapshots the contexts
	// Trails holds the trailing contexts (nil entries for non-redundant
	// modes).
	Trails []*pipeline.Context //rmtsnap:skip — wiring into the pipeline, which snapshots the contexts
	// Devices holds each logical program's memory-mapped pseudo-device
	// (uncached LDIO/STIO traffic), indexed like Leads.
	Devices []*vm.PseudoDevice

	// Metrics, when non-nil, is the observability registry built by
	// EnableMetrics.
	Metrics *metrics.Registry //rmtsnap:skip — observer attachment, outside simulated state
	// Events, when non-nil, is the structured event log attached by
	// EnableTrace.
	Events *trace.EventLog //rmtsnap:skip — observer attachment, outside simulated state

	// bridges holds each logical program's uncached-load replication bridge
	// (nil entries for non-redundant modes), indexed like Leads. Snapshots
	// capture its queued (addr, value) stream.
	bridges []*ioBridge

	// snapHint remembers the last snapshot's (or restored stream's) encoded
	// size so the next snapshot preallocates its buffer instead of growing
	// into it.
	snapHint int //rmtsnap:skip — encoder sizing hint, not machine state

	// spareCkpts holds SRTR checkpoints the machine's runs have dropped,
	// buffers included, for capture to reuse (recovery.go).
	spareCkpts []*srtrCkpt //rmtsnap:skip — recycled checkpoint storage, not machine state
	// ckpts is the running SRTR loop's checkpoint list, oldest first, and
	// resume the list the next SRTR run starts from (recovery.go).
	ckpts  []*srtrCkpt     //rmtsnap:skip — SRTR run state, carried beside snapshots as a CheckpointList
	resume *CheckpointList //rmtsnap:skip — input to the next SRTR run, not machine state

	// OnRollback, when non-nil, runs when an SRTR run rolls back, before
	// it restores its target, with the cycle the target checkpoint was
	// captured at; the rollback is already counted in Recoveries and
	// RecoveryCycles. A non-nil return ends the run with that error
	// instead of the restore. The fault engine ends a replay there when
	// the target precedes the fault.
	OnRollback func(target uint64) error //rmtsnap:skip — engine hook, outside simulated state

	// Recoveries and RecoveryCycles account SRTR rollbacks: how many the
	// run performed and the total cycles re-executed (trigger cycle minus
	// restored checkpoint cycle, summed). Engine-level run accounting,
	// deliberately outside snapshots: a rolled-back machine is
	// byte-identical to the fault-free one, and these fields are the only
	// record that a recovery happened.
	Recoveries     int    //rmtsnap:skip — run accounting, outside snapshots (above)
	RecoveryCycles uint64 //rmtsnap:skip — run accounting, outside snapshots (above)

	// built holds every core the machine has built, for Rebuild to reuse:
	// a CRT machine rebuilt for one core keeps the second as a spare.
	built [2]*pipeline.Core //rmtsnap:skip — storage kept for Rebuild; Cores lists the cores in use
}

// Build assembles the machine described by spec.
func Build(spec Spec) (*Machine, error) {
	m := new(Machine)
	if err := m.Rebuild(spec); err != nil {
		return nil, err
	}
	return m, nil
}

// Rebuild reassembles m as the machine Build(spec) returns, whatever spec
// m was built or run for before. The cores m holds are rebuilt in place,
// so their cache lines and predictor tables are reused instead of
// allocated again; everything else is built fresh: the contexts, with
// their memories and statistics (a RunStats from an earlier run points at
// those statistics and still reads the same), the redundant pairs, the
// devices, the observers and the run accounting. On error m is
// half-built and must be discarded.
func (m *Machine) Rebuild(spec Spec) error {
	if len(spec.Programs) == 0 {
		return fmt.Errorf("sim: no programs")
	}
	cfg := spec.Config
	cfg.PerThreadSQ = spec.PerThreadSQ
	cfg.NoStoreComparison = spec.NoStoreComparison
	if spec.Mode == ModeLockstep {
		cfg.Hier.CheckerMissPenalty = spec.CheckerLatency
		cfg.CheckerStorePenalty = spec.CheckerLatency
	}

	*m = Machine{
		Machine: &pipeline.Machine{StopOnDetection: spec.StopOnDetection},
		Spec:    spec,
		built:   m.built,
	}

	switch spec.Mode {
	case ModeBase, ModeLockstep:
		core := m.addCore(cfg)
		for i, name := range spec.Programs {
			ctx, err := newSingle(name, i, spec)
			if err != nil {
				return err
			}
			core.AddContext(ctx)
			m.Leads = append(m.Leads, ctx)
			m.Trails = append(m.Trails, nil)
		}
		core.FinalizeQueues()

	case ModeBase2:
		core := m.addCore(cfg)
		// Two independent copies per program, each with its own memory
		// image (no replication or comparison couples them).
		progID := 0
		for _, name := range spec.Programs {
			lead, err := newSingle(name, progID, spec)
			if err != nil {
				return err
			}
			copy2, err := newSingle(name, progID+1, spec)
			if err != nil {
				return err
			}
			progID += 2
			core.AddContext(lead)
			core.AddContext(copy2)
			m.Leads = append(m.Leads, lead)
			m.Trails = append(m.Trails, nil)
		}
		core.FinalizeQueues()

	case ModeSRT, ModeSRTR, ModeAdaptive:
		core := m.addCore(cfg)
		for i, name := range spec.Programs {
			lead, trail, pair, err := newPair(name, i, spec, rmt.SRTLatencies(), cfg)
			if err != nil {
				return err
			}
			switch spec.Mode {
			case ModeSRTR:
				pair.RVQ = rmt.NewRVQ(cfg.RVQSize)
			case ModeAdaptive:
				tbl, err := adaptiveTable(name, spec.AdaptiveThreshold)
				if err != nil {
					return err
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
		core0, core1 := m.addCore(cfg), m.addCore(cfg)
		if err := buildCRT(m, spec, cfg, core0, core1); err != nil {
			return err
		}
		core0.FinalizeQueues()
		core1.FinalizeQueues()

	default:
		return fmt.Errorf("sim: unknown mode %d", int(spec.Mode))
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
	return nil
}

// addCore rebuilds the machine's next core for cfg, the one it holds or a
// new one, and puts it in use. A second core shares the first one's L2:
// the two cores of CRT's CMP.
func (m *Machine) addCore(cfg pipeline.Config) *pipeline.Core {
	i := len(m.Cores)
	var sharedL2 *mem.Cache
	if i > 0 {
		sharedL2 = m.Cores[0].Hierarchy().L2
	}
	if m.built[i] == nil {
		m.built[i] = new(pipeline.Core)
	}
	co := m.built[i]
	co.Rebuild(i, cfg, sharedL2)
	m.Cores = append(m.Cores, co)
	return co
}

// ProgramIPC returns program i's measured-copy IPC from rs, a run of a
// machine in mode m. A run's LogicalIPC lists the measured copy of each
// program in spec order, except under Base2, which lists both of each
// program's independent copies side by side (Build gives each its own
// context), so that program i's measured copy is entry 2i.
func (m Mode) ProgramIPC(rs *stats.RunStats, i int) float64 {
	if m == ModeBase2 {
		i *= 2
	}
	return rs.LogicalIPC[i]
}

// ProgramIPCs returns ProgramIPC for each of a run's first n programs.
func (m Mode) ProgramIPCs(rs *stats.RunStats, n int) []float64 {
	ipcs := make([]float64, n)
	for i := range ipcs {
		ipcs[i] = m.ProgramIPC(rs, i)
	}
	return ipcs
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
	maxCycles := (m.Spec.Warmup+m.Spec.Budget)*60 + 500000
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
