package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/rmt"
	"repro/internal/stats"
	"repro/internal/vm"
)

// NewContext creates a hardware thread context running arch in the given
// role. budget is the commit count after which the context's finish time is
// recorded (0 = no budget).
func NewContext(role Role, progID int, arch *vm.Thread, budget uint64) *Context {
	return &Context{
		Role:   role,
		ProgID: progID,
		Arch:   arch,
		Budget: budget,
		Stats:  &stats.ThreadStats{},
	}
}

// Machine drives one or more cores in lockstep cycles and collects results.
type Machine struct {
	Cores []*Core
	Pairs []*rmt.Pair

	// StopOnDetection ends the run at the first detected fault (used by
	// the fault-injection experiments).
	StopOnDetection bool //rmtsnap:skip — run policy, not machine state

	// OnCycle, when non-nil, runs at the top of every simulated cycle
	// (before the cores step). A non-nil return aborts the run with that
	// error. The snapshot engine hangs checkpoint capture off this hook.
	OnCycle func(cycle uint64) error //rmtsnap:skip — observer hook, outside simulated state

	Cycles uint64

	// Watchdog progress state. Fields rather than Run locals so a restored
	// machine resumes the deadlock countdown exactly where the snapshotted
	// one left it.
	wdLastProgress uint64
	wdLastRetired  uint64

	// ctxCache memoises allContexts: done() runs every cycle, and
	// rebuilding the slice per call was a per-cycle allocation.
	ctxCache []*Context //rmtsnap:skip — memo of wiring, rebuilt on demand
	// memScratch holds sharedMemories' list between snapshot passes, so
	// listing the memories allocates nothing.
	memScratch []*vm.Memory // scratch, rebuilt by every snapshot pass
}

// DeadlockError reports a watchdog-detected lack of forward progress, with
// a state dump to aid debugging.
type DeadlockError struct {
	Cycle uint64
	Dump  string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("pipeline: no retirement progress by cycle %d (deadlock?)\n%s", e.Cycle, e.Dump)
}

// allContexts returns every context across cores (cached after first use;
// cores and contexts are fixed before the machine starts stepping).
func (m *Machine) allContexts() []*Context {
	if m.ctxCache == nil {
		for _, co := range m.Cores {
			m.ctxCache = append(m.ctxCache, co.ctxs...)
		}
	}
	return m.ctxCache
}

// done reports whether every budgeted context has finished: reached its
// commit budget, or halted (HALT retired) with nothing left in flight.
func (m *Machine) done() bool {
	any := false
	for _, c := range m.allContexts() {
		if c.Budget > 0 {
			any = true
			finished := c.FinishCycle > 0 || (c.Arch.Halted && c.drainedAndIdle())
			if !finished {
				return false
			}
		}
	}
	return any
}

// detected reports whether any pair has recorded a fault detection.
func (m *Machine) detected() bool {
	for _, p := range m.Pairs {
		if len(p.Detected) > 0 {
			return true
		}
	}
	return false
}

// Run simulates until every budgeted context commits its budget, maxCycles
// elapse, or (with StopOnDetection) a fault is detected. It returns the
// accumulated statistics. Run continues from the machine's current cycle
// count, so a freshly built machine starts at cycle 0 and a restored one
// resumes mid-flight.
func (m *Machine) Run(maxCycles uint64) (*stats.RunStats, error) {
	var watchdog uint64
	if len(m.Cores) > 0 {
		watchdog = m.Cores[0].cfg.WatchdogCycles
	}
	for ; m.Cycles < maxCycles; m.Cycles++ {
		if m.OnCycle != nil {
			if err := m.OnCycle(m.Cycles); err != nil {
				return m.stats(), err
			}
		}
		for _, co := range m.Cores {
			co.Step()
		}
		if m.done() {
			m.Cycles++
			break
		}
		if m.StopOnDetection && m.detected() {
			m.Cycles++
			break
		}
		var retired uint64
		for _, co := range m.Cores {
			retired += co.Retired
		}
		if retired > m.wdLastRetired {
			m.wdLastRetired = retired
			m.wdLastProgress = m.Cycles
		} else if watchdog > 0 && m.Cycles-m.wdLastProgress > watchdog {
			return m.stats(), &DeadlockError{Cycle: m.Cycles, Dump: m.dump()}
		}
	}
	return m.stats(), nil
}

func (m *Machine) dump() string {
	var b strings.Builder
	for _, co := range m.Cores {
		fmt.Fprintln(&b, co.String())
		for _, c := range co.ctxs {
			if d := c.robHead(); d != nil {
				fmt.Fprintf(&b, "  t%d head: %v seq=%d issued=%v done=%d sq=%d/%d retSt=%d\n",
					c.TID, d.out.Instr, d.out.Seq, d.issued, d.doneCycle,
					c.sqUsed, c.sqCap, c.retiredStores.Len())
			}
		}
	}
	for _, p := range m.Pairs {
		fmt.Fprintf(&b, "pair %d: lpq=%d lvq=%d cmpLead=%d aggPend=%d\n",
			p.LogicalID, p.LPQ.Len(), p.LVQ.Len(), p.Cmp.PendingLeading(), p.Agg.Pending())
	}
	return b.String()
}

// stats assembles the run's results. Per-thread IPC uses the thread's own
// finish time when it had a budget (so tail effects of other threads don't
// distort it).
func (m *Machine) stats() *stats.RunStats {
	ctxs := m.allContexts()
	rs := &stats.RunStats{
		Cycles:     m.Cycles,
		Threads:    make([]*stats.ThreadStats, 0, len(ctxs)),
		LogicalIPC: make([]float64, 0, len(m.Pairs)+len(ctxs)),
	}
	for _, c := range ctxs {
		rs.Threads = append(rs.Threads, c.Stats)
	}
	// Logical IPC: one entry per pair (leading copy), plus one per single
	// context, in pair/context order.
	for _, p := range m.Pairs {
		ctx := m.findContext(p.LeadCore, p.LeadTID)
		rs.LogicalIPC = append(rs.LogicalIPC, m.threadIPC(ctx))
	}
	if len(m.Pairs) == 0 {
		for _, c := range m.allContexts() {
			if c.Role == RoleSingle {
				rs.LogicalIPC = append(rs.LogicalIPC, m.threadIPC(c))
			}
		}
	}
	return rs
}

func (m *Machine) threadIPC(c *Context) float64 {
	if c == nil {
		return 0
	}
	cycles := m.Cycles
	committed := c.committed
	if c.Budget > 0 && c.FinishCycle > 0 {
		cycles = c.FinishCycle
		committed = c.Budget
	}
	// Measure from the end of warmup.
	if committed <= c.Warmup || cycles <= c.WarmCycle {
		return 0
	}
	committed -= c.Warmup
	cycles -= c.WarmCycle
	return float64(committed) / float64(cycles)
}

func (m *Machine) findContext(core, tid int) *Context {
	if core < 0 || core >= len(m.Cores) {
		return nil
	}
	for _, c := range m.Cores[core].ctxs {
		if c.TID == tid {
			return c
		}
	}
	return nil
}

// Detections returns all recorded fault detections across pairs.
func (m *Machine) Detections() []*rmt.Mismatch {
	var ds []*rmt.Mismatch
	for _, p := range m.Pairs {
		ds = append(ds, p.Detected...)
	}
	return ds
}
