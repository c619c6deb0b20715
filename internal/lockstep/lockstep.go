// Package lockstep implements the paper's lockstepping baseline as a real
// dual-core machine: two identical cores execute the same computation
// cycle-by-cycle, and a central checker compares every output signal
// (retired stores, in this model) before it is forwarded outside the
// sphere of replication (Figure 1b).
//
// For performance experiments, internal/sim's ModeLockstep uses an
// equivalent single-core model (two fault-free lockstepped cores are
// cycle-identical by construction, so simulating one with the checker
// penalties charged is exact); this package exists to
//
//  1. validate that equivalence (TestDualMatchesSingle), and
//  2. run fault-detection experiments on lockstepping, which the
//     single-core model cannot express: inject a fault into ONE core and
//     watch the checker flag the divergence.
//
// The checker models the paper's central-checker properties: it sees each
// core's store stream at retirement + checker latency, compares
// (address, value, size) pairs in order, and flags any divergence —
// including one core producing a store the other does not (a corrupted
// branch), detected when the streams' orders disagree.
package lockstep

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Mismatch describes a checker-detected divergence between the cores.
type Mismatch struct {
	Cycle        uint64
	CoreAHead    bool // true if core A's stream had an entry core B lacked
	AddrA, AddrB uint64
	ValA, ValB   uint64
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("lockstep: store streams diverge at cycle %d: A %#x=%#x vs B %#x=%#x",
		m.Cycle, m.AddrA, m.ValA, m.AddrB, m.ValB)
}

// storeEvent is one store leaving a core's sphere, as seen by the checker.
type storeEvent struct {
	addr, val uint64
	size      int
}

// Checker is the central output comparator between the two cores.
type Checker struct {
	// Latency is the checker's comparison delay; it is also charged on
	// the cores' miss paths via the cache configuration (Lock8).
	Latency uint64

	a, b []storeEvent

	Comparisons stats.Counter
	Mismatches  stats.Counter
	Detected    []*Mismatch
}

// Observe records a store leaving core "core" (0 or 1).
func (c *Checker) Observe(core int, addr, val uint64, size int) {
	ev := storeEvent{addr: addr, val: val, size: size}
	if core == 0 {
		c.a = append(c.a, ev)
	} else {
		c.b = append(c.b, ev)
	}
}

// Drain compares as many paired events as are available at cycle now.
func (c *Checker) Drain(now uint64) {
	for len(c.a) > 0 && len(c.b) > 0 {
		ea, eb := c.a[0], c.b[0]
		c.a, c.b = c.a[1:], c.b[1:]
		c.Comparisons.Inc()
		if ea != eb {
			c.Mismatches.Inc()
			c.Detected = append(c.Detected, &Mismatch{
				Cycle: now,
				AddrA: ea.addr, ValA: ea.val,
				AddrB: eb.addr, ValB: eb.val,
			})
		}
	}
}

// Backlog reports how many unpaired events wait on each side; a large
// asymmetry means one core has raced ahead or diverged in control flow.
func (c *Checker) Backlog() (a, b int) { return len(c.a), len(c.b) }

// Machine is a dual-core lockstepped processor pair running one or more
// logical programs (each program runs on BOTH cores as a RoleSingle
// thread).
type Machine struct {
	CoreA, CoreB *pipeline.Core
	Checker      *Checker

	// ThreadsA/ThreadsB hold the per-program contexts on each core.
	ThreadsA, ThreadsB []*pipeline.Context

	// DivergenceWindow bounds how far one core's unpaired store backlog
	// may grow before the checker declares a control-flow divergence
	// (one core emitting stores the other never will).
	DivergenceWindow int

	Cycles uint64
}

// Config bundles the machine parameters.
type Config struct {
	Pipeline pipeline.Config
	// CheckerLatency is the Lock0/Lock8 knob.
	CheckerLatency uint64
	Budget         uint64
	Warmup         uint64
}

// New builds a dual-core lockstep machine running the named programs.
func New(cfg Config, programs []string) (*Machine, error) {
	pcfg := cfg.Pipeline
	pcfg.Hier.CheckerMissPenalty = cfg.CheckerLatency
	pcfg.CheckerStorePenalty = cfg.CheckerLatency

	m := &Machine{
		CoreA:            pipeline.NewCore(0, pcfg, nil),
		CoreB:            pipeline.NewCore(1, pcfg, nil),
		Checker:          &Checker{Latency: cfg.CheckerLatency},
		DivergenceWindow: 512,
	}
	for i, name := range programs {
		prog, err := progen.Build(name)
		if err != nil {
			return nil, err
		}
		mk := func(core *pipeline.Core, id int) *pipeline.Context {
			img := vm.NewMemory()
			vm.Load(prog, img)
			ctx := pipeline.NewContext(pipeline.RoleSingle, i, vm.NewThread(id, prog, img), cfg.Warmup+cfg.Budget)
			ctx.Warmup = cfg.Warmup
			core.AddContext(ctx)
			return ctx
		}
		m.ThreadsA = append(m.ThreadsA, mk(m.CoreA, i*2))
		m.ThreadsB = append(m.ThreadsB, mk(m.CoreB, i*2+1))
	}
	m.CoreA.FinalizeQueues()
	m.CoreB.FinalizeQueues()
	return m, nil
}

// InjectFault attaches a single-bit result corruption to one core's copy of
// one program, firing at the victim's seq-th instruction.
func (m *Machine) InjectFault(core, logical int, atSeq uint64, point vm.CorruptPoint, bit uint) {
	ctx := m.ThreadsA[logical]
	if core == 1 {
		ctx = m.ThreadsB[logical]
	}
	fired := false
	ctx.Arch.Tolerant = true
	ctx.Arch.Corrupt = func(p vm.CorruptPoint, seq, pc, v uint64) uint64 {
		if !fired && seq >= atSeq && p == point {
			fired = true
			return v ^ (1 << (bit & 63))
		}
		return v
	}
}

// Run simulates until all budgets complete, a mismatch is detected (if
// stopOnDetection), or maxCycles elapse. The two cores' architectural
// store streams are fed through the checker as their threads' stores leave
// each sphere; since pipeline cores commit stores at drain, we sample each
// core's committed memory writes via the contexts' outcome streams —
// concretely, the checker taps the same retirement information the central
// checker wires would carry.
func (m *Machine) Run(maxCycles uint64, stopOnDetection bool) (*stats.RunStats, error) {
	// The pipeline package exposes store-drain tapping via DrainTap.
	m.CoreA.DrainTap = func(addr, val uint64, size int) {
		m.Checker.Observe(0, addr, val, size)
	}
	m.CoreB.DrainTap = func(addr, val uint64, size int) {
		m.Checker.Observe(1, addr, val, size)
	}
	var lastRetired uint64
	var lastProgress uint64
	for m.Cycles = 0; m.Cycles < maxCycles; m.Cycles++ {
		m.CoreA.Step()
		m.CoreB.Step()
		m.Checker.Drain(m.Cycles)
		if a, b := m.Checker.Backlog(); a > m.DivergenceWindow || b > m.DivergenceWindow {
			// One core's store stream ran unboundedly ahead: control-flow
			// divergence (a corrupted branch made the copies disagree about
			// which stores exist at all).
			m.Checker.Mismatches.Inc()
			m.Checker.Detected = append(m.Checker.Detected, &Mismatch{Cycle: m.Cycles, CoreAHead: a > b})
		}
		if stopOnDetection && len(m.Checker.Detected) > 0 {
			break
		}
		if m.doneAll() {
			m.Cycles++
			break
		}
		retired := m.CoreA.Retired + m.CoreB.Retired
		if retired > lastRetired {
			lastRetired, lastProgress = retired, m.Cycles
		} else if m.Cycles-lastProgress > 200000 {
			return nil, fmt.Errorf("lockstep: no progress by cycle %d", m.Cycles)
		}
	}
	rs := &stats.RunStats{Cycles: m.Cycles}
	for i, c := range m.ThreadsA {
		rs.Threads = append(rs.Threads, c.Stats)
		ipc := 0.0
		if c.FinishCycle > c.WarmCycle && c.Budget > c.Warmup {
			ipc = float64(c.Budget-c.Warmup) / float64(c.FinishCycle-c.WarmCycle)
		}
		rs.LogicalIPC = append(rs.LogicalIPC, ipc)
		_ = i
	}
	return rs, nil
}

func (m *Machine) doneAll() bool {
	for _, cs := range [][]*pipeline.Context{m.ThreadsA, m.ThreadsB} {
		for _, c := range cs {
			if c.Budget > 0 && c.FinishCycle == 0 && !c.Arch.Halted {
				return false
			}
		}
	}
	return true
}

// Validate checks the machine invariant the paper relies on: with no
// faults, the two cores are cycle-identical. It runs both cores and
// returns an error if their per-thread retirement counts ever disagree at
// the end of the run or any store comparison failed.
func (m *Machine) Validate() error {
	for i := range m.ThreadsA {
		a, b := m.ThreadsA[i].Committed(), m.ThreadsB[i].Committed()
		if a != b {
			return fmt.Errorf("lockstep: program %d committed %d vs %d", i, a, b)
		}
	}
	if n := m.Checker.Mismatches.Value(); n != 0 {
		return fmt.Errorf("lockstep: %d mismatches in fault-free run", n)
	}
	return nil
}
