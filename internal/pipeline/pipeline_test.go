package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/rmt"
	"repro/internal/vm"
)

// buildMachine wires a machine by hand (tests stay independent of
// internal/sim, which would be an import cycle through internal/program).
func singleMachine(t *testing.T, prog *isa.Program, budget uint64) (*Machine, *Context) {
	t.Helper()
	cfg := DefaultConfig()
	core := NewCore(0, cfg, nil)
	memImg := vm.NewMemory()
	vm.Load(prog, memImg)
	ctx := NewContext(RoleSingle, 0, vm.NewThread(0, prog, memImg), budget)
	core.AddContext(ctx)
	core.FinalizeQueues()
	m := &Machine{Cores: []*Core{core}}
	return m, ctx
}

func srtMachine(t *testing.T, prog *isa.Program, budget uint64, cfg Config) (*Machine, *Context, *Context, *rmt.Pair) {
	t.Helper()
	core := NewCore(0, cfg, nil)
	memImg := vm.NewMemory()
	vm.Load(prog, memImg)
	lead := NewContext(RoleLeading, 0, vm.NewThread(0, prog, memImg), budget)
	trail := NewContext(RoleTrailing, 0, vm.NewThread(1, prog, memImg), 0)
	lead.PeerArch = trail.Arch
	trail.PeerArch = lead.Arch
	pair := rmt.NewPair(0, rmt.SRTLatencies(), cfg.LVQSize, cfg.LPQSize)
	pair.PreferentialSpaceRedundancy = true
	lead.Pair = pair
	trail.Pair = pair
	core.AddContext(lead)
	core.AddContext(trail)
	pair.LeadCore, pair.LeadTID = 0, lead.TID
	pair.TrailCore, pair.TrailTID = 0, trail.TID
	core.FinalizeQueues()
	m := &Machine{Cores: []*Core{core}, Pairs: []*rmt.Pair{pair}}
	return m, lead, trail, pair
}

// tinyLoop builds a deterministic loop of n iterations that ends in HALT.
func tinyLoop(n int64) *isa.Program {
	b := isa.NewBuilder("tiny")
	b.Ldi(isa.R1, n)
	b.Ldi(isa.R2, 0x1000)
	b.Label("top")
	b.Mul(isa.R3, isa.R1, isa.R1)
	b.Stq(isa.R3, isa.R2, 0)
	b.Ldq(isa.R4, isa.R2, 0)
	b.Add(isa.R5, isa.R4, isa.R3)
	b.Addi(isa.R2, isa.R2, 8)
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, "top")
	b.Halt()
	return b.MustFinish()
}

func TestHaltingProgramCompletes(t *testing.T) {
	prog := tinyLoop(50)
	m, ctx := singleMachine(t, prog, 1_000_000)
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	// 2 setup + 50*7 loop + halt = 353 committed instructions.
	if got := ctx.Committed(); got != 353 {
		t.Errorf("committed = %d, want 353", got)
	}
	if !ctx.Arch.Halted {
		t.Error("thread did not halt")
	}
	if m.Cycles == 0 || m.Cycles > 20000 {
		t.Errorf("implausible cycle count %d", m.Cycles)
	}
}

func TestStoresCommitToMemoryInOrder(t *testing.T) {
	prog := tinyLoop(10)
	m, ctx := singleMachine(t, prog, 1_000_000)
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	// After the run drains, every store must have left the sphere: the
	// memory image holds i*i at 0x1000+8*(10-i).
	memImg := ctx.Arch.Mem
	for i := int64(10); i >= 1; i-- {
		addr := uint64(0x1000 + 8*(10-i))
		if got := memImg.Read64(addr); got != uint64(i*i) {
			t.Errorf("mem[%#x] = %d, want %d", addr, got, i*i)
		}
	}
	if ctx.Arch.Mem.PendingBytes() != 0 {
		t.Errorf("overlay not drained: %d bytes", ctx.Arch.Mem.PendingBytes())
	}
}

func TestBranchMispredictionCostsCycles(t *testing.T) {
	// Same instruction count; one loop's inner branch is LCG-driven
	// (unpredictable high bit), the other constant. The unpredictable
	// version must take noticeably longer.
	build := func(random bool) *isa.Program {
		b := isa.NewBuilder("br")
		b.Ldi(isa.R1, 2000)
		b.Ldi(isa.R2, 12345)
		b.Label("top")
		b.Muli(isa.R2, isa.R2, 1103515245)
		b.Addi(isa.R2, isa.R2, 12345)
		b.Andi(isa.R2, isa.R2, 0x3fffffff)
		if random {
			b.Srli(isa.R3, isa.R2, 17)
		} else {
			b.Srli(isa.R3, isa.R2, 62) // always zero
		}
		b.Andi(isa.R3, isa.R3, 1)
		b.Beq(isa.R3, "skip")
		b.Addi(isa.R4, isa.R4, 1)
		b.Label("skip")
		b.Addi(isa.R1, isa.R1, -1)
		b.Bne(isa.R1, "top")
		b.Halt()
		return b.MustFinish()
	}
	mr, ctxr := singleMachine(t, build(true), 1_000_000)
	if _, err := mr.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	mp, _ := singleMachine(t, build(false), 1_000_000)
	if _, err := mp.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if ctxr.Stats.BranchMispredicts.Value() < 300 {
		t.Fatalf("random branch mispredicted only %d times", ctxr.Stats.BranchMispredicts.Value())
	}
	if mr.Cycles < mp.Cycles*12/10 {
		t.Errorf("unpredictable loop %d cycles vs predictable %d; expected >= 1.2x",
			mr.Cycles, mp.Cycles)
	}
}

func TestSRTRunsTinyProgramIdentically(t *testing.T) {
	prog := tinyLoop(60)
	m, lead, trail, pair := srtMachine(t, prog, 1_000_000, DefaultConfig())
	if _, err := m.Run(200000); err != nil {
		t.Fatal(err)
	}
	// The machine stops when the budgeted leading copy finishes; the
	// trailing copy's final HALT may still be in flight.
	if d := int64(lead.Committed()) - int64(trail.Committed()); d < 0 || d > 1 {
		t.Errorf("copies committed %d vs %d", lead.Committed(), trail.Committed())
	}
	if pair.Cmp.Mismatches.Value() != 0 {
		t.Error("fault-free mismatch")
	}
	if pair.Cmp.Comparisons.Value() != 60 {
		t.Errorf("comparisons = %d, want 60 (one per store)", pair.Cmp.Comparisons.Value())
	}
	// All stores verified and committed.
	if got := lead.Arch.Mem.PendingBytes(); got != 0 {
		t.Errorf("leading overlay: %d pending bytes", got)
	}
	if got := trail.Arch.Mem.PendingBytes(); got != 0 {
		t.Errorf("trailing overlay: %d pending bytes", got)
	}
}

// TestSRTTrailingIsPerfect: the line prediction queue gives the trailing
// thread a perfect instruction stream — no branch or line mispredictions,
// and no data-cache traffic (loads come from the LVQ).
func TestSRTTrailingIsPerfect(t *testing.T) {
	prog := tinyLoop(200)
	m, _, trail, _ := srtMachine(t, prog, 1_000_000, DefaultConfig())
	if _, err := m.Run(400000); err != nil {
		t.Fatal(err)
	}
	if n := trail.Stats.BranchMispredicts.Value(); n != 0 {
		t.Errorf("trailing mispredicted %d branches", n)
	}
	if n := trail.Stats.LineMispredicts.Value(); n != 0 {
		t.Errorf("trailing line-mispredicted %d chunks", n)
	}
	if n := trail.Stats.DCacheMisses.Value(); n != 0 {
		t.Errorf("trailing took %d D-cache misses", n)
	}
}

// TestMemoryBarrierOrdering: an MB retires only after all older stores
// drain, in both base and SRT modes (the SRT case requires the §4.4.2
// forced chunk termination to avoid deadlock).
func TestMemoryBarrierOrdering(t *testing.T) {
	b := isa.NewBuilder("mb")
	b.Ldi(isa.R1, 40)
	b.Ldi(isa.R2, 0x2000)
	b.Label("top")
	b.Stq(isa.R1, isa.R2, 0)
	b.Mb()
	b.Ldq(isa.R3, isa.R2, 0)
	b.Addi(isa.R2, isa.R2, 8)
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, "top")
	b.Halt()
	prog := b.MustFinish()

	m1, ctx := singleMachine(t, prog, 1_000_000)
	if _, err := m1.Run(100000); err != nil {
		t.Fatalf("base MB run: %v", err)
	}
	if ctx.Committed() == 0 {
		t.Fatal("nothing retired")
	}

	m2, lead, _, _ := srtMachine(t, prog, 1_000_000, DefaultConfig())
	if _, err := m2.Run(300000); err != nil {
		t.Fatalf("SRT MB run deadlocked: %v", err)
	}
	if lead.Committed() != ctx.Committed() {
		t.Errorf("SRT committed %d, base %d", lead.Committed(), ctx.Committed())
	}
}

// TestPartialForwardFlush: a byte store followed by an overlapping quad
// load forces the store out of the store queue before the load issues; in
// SRT mode the chunk terminates at the store (§4.4.2). The loaded value
// must merge the byte correctly either way.
func TestPartialForwardFlush(t *testing.T) {
	b := isa.NewBuilder("pf")
	b.Ldi(isa.R1, 30)
	b.Ldi(isa.R2, 0x3000)
	b.Ldi(isa.R5, 0)
	b.Label("top")
	b.Andi(isa.R3, isa.R1, 0xff)
	b.Stb(isa.R3, isa.R2, 2) // byte store
	b.Ldq(isa.R4, isa.R2, 0) // overlapping quad load (partial forward)
	b.Add(isa.R5, isa.R5, isa.R4)
	b.Addi(isa.R2, isa.R2, 8)
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, "top")
	b.Halt()
	prog := b.MustFinish()

	m, lead, _, pair := srtMachine(t, prog, 1_000_000, DefaultConfig())
	if _, err := m.Run(300000); err != nil {
		t.Fatalf("partial-forward SRT run: %v", err)
	}
	if pair.Agg.ForcedTerminations.Value() == 0 {
		t.Error("no forced chunk terminations despite partial forwarding")
	}
	// Functional check: sum of (i & 0xff) << 16 for i = 30..1.
	var want uint64
	for i := uint64(30); i >= 1; i-- {
		want += (i & 0xff) << 16
	}
	if got := lead.Arch.IntReg[isa.R5]; got != want {
		t.Errorf("accumulator = %#x, want %#x", got, want)
	}
}

// TestQueueDivision checks the static load/store queue division of §3.4 and
// the LVQ's load-queue exemption of §4.1.
func TestQueueDivision(t *testing.T) {
	cfg := DefaultConfig()
	prog := tinyLoop(10)

	// Base, two threads: 32 SQ / 32 LQ entries each.
	core := NewCore(0, cfg, nil)
	for i := 0; i < 2; i++ {
		memImg := vm.NewMemory()
		vm.Load(prog, memImg)
		core.AddContext(NewContext(RoleSingle, i, vm.NewThread(i, prog, memImg), 0))
	}
	core.FinalizeQueues()
	for _, c := range core.Contexts() {
		if c.sqCap != 32 || c.lqCap != 32 {
			t.Errorf("base 2-thread division: sq=%d lq=%d, want 32/32", c.sqCap, c.lqCap)
		}
	}

	// SRT pair: SQ divided 32/32, but the leading thread gets the whole
	// 64-entry load queue (trailing loads use the LVQ).
	_, lead, trail, _ := srtMachine(t, prog, 0, cfg)
	if lead.sqCap != 32 || trail.sqCap != 32 {
		t.Errorf("SRT SQ division: %d/%d, want 32/32", lead.sqCap, trail.sqCap)
	}
	if lead.lqCap != 64 {
		t.Errorf("leading LQ = %d, want all 64", lead.lqCap)
	}

	// Per-thread store queues: 64 each.
	cfg2 := cfg
	cfg2.PerThreadSQ = true
	_, lead2, trail2, _ := srtMachine(t, prog, 0, cfg2)
	if lead2.sqCap != 64 || trail2.sqCap != 64 {
		t.Errorf("ptSQ: %d/%d, want 64/64", lead2.sqCap, trail2.sqCap)
	}
}

// TestStoreLifetimeLongerUnderSRT: the headline store-queue observation —
// leading stores live longer because they wait for output comparison.
func TestStoreLifetimeLongerUnderSRT(t *testing.T) {
	prog := tinyLoop(400)
	mb, ctxb := singleMachine(t, prog, 1_000_000)
	if _, err := mb.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	ms, lead, _, _ := srtMachine(t, prog, 1_000_000, DefaultConfig())
	if _, err := ms.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	baseLife := ctxb.Stats.StoreLifetime.Value()
	srtLife := lead.Stats.StoreLifetime.Value()
	if srtLife <= baseLife {
		t.Errorf("SRT store lifetime %.1f <= base %.1f; comparison must lengthen it",
			srtLife, baseLife)
	}
}

// TestWatchdogReportsDeadlock: a machine with no fetchable work (empty
// budgeted context that never finishes) trips the watchdog rather than
// spinning forever.
func TestWatchdogReportsDeadlock(t *testing.T) {
	// A program that HALTs immediately but with Budget > instructions
	// executed: FinishCycle never set; done() accepts the halted thread,
	// so instead force deadlock with an artificial never-ready context by
	// giving the watchdog a machine whose only context halts but claim it
	// unfinished via a huge budget... the halted thread counts as done, so
	// build a 2-context machine where the second waits on a pair that has
	// no leading side: simplest is an SRT machine whose LPQ never fills
	// because the leading thread halted before the trailing consumed
	// everything is still "done". Exercise the watchdog path directly via
	// Config.WatchdogCycles and a context that cannot finish: budget larger
	// than the halting program can commit, with Arch.Halted suppressed by
	// an infinite loop and zero fetch (RMB cap 0 is invalid) — use a
	// trailing-only machine instead.
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 500
	core := NewCore(0, cfg, nil)
	prog := tinyLoop(5)
	memImg := vm.NewMemory()
	vm.Load(prog, memImg)
	trail := NewContext(RoleTrailing, 0, vm.NewThread(0, prog, memImg), 100)
	pair := rmt.NewPair(0, rmt.SRTLatencies(), 8, 8)
	trail.Pair = pair
	core.AddContext(trail)
	core.FinalizeQueues()
	m := &Machine{Cores: []*Core{core}}
	_, err := m.Run(100000)
	if err == nil {
		t.Fatal("orphan trailing thread should deadlock (its LPQ never fills)")
	}
	if _, ok := err.(*DeadlockError); !ok {
		t.Fatalf("error type %T, want *DeadlockError", err)
	}
}

// TestLockstepCheckerSlowsMisses: Lock8's checker penalty must lengthen
// runs relative to Lock0 on a miss-heavy program.
func TestLockstepCheckerSlowsMisses(t *testing.T) {
	// Build a pointer-walk over 1 MB to guarantee cache misses.
	b := isa.NewBuilder("walk")
	b.Ldi(isa.R1, 3000)
	b.Ldi(isa.R2, 0x100000)
	b.Label("top")
	b.Ldq(isa.R3, isa.R2, 0)
	b.Add(isa.R4, isa.R4, isa.R3)
	b.Stq(isa.R4, isa.R2, 8)
	b.Addi(isa.R2, isa.R2, 64) // new cache block each iteration
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, "top")
	b.Halt()
	prog := b.MustFinish()

	runWith := func(penalty uint64) uint64 {
		cfg := DefaultConfig()
		cfg.Hier.CheckerMissPenalty = penalty
		cfg.CheckerStorePenalty = penalty
		core := NewCore(0, cfg, nil)
		memImg := vm.NewMemory()
		vm.Load(prog, memImg)
		core.AddContext(NewContext(RoleSingle, 0, vm.NewThread(0, prog, memImg), 1_000_000))
		core.FinalizeQueues()
		m := &Machine{Cores: []*Core{core}}
		if _, err := m.Run(2_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Cycles
	}
	lock0 := runWith(0)
	lock8 := runWith(8)
	if lock8 <= lock0 {
		t.Errorf("Lock8 (%d cycles) not slower than Lock0 (%d)", lock8, lock0)
	}
}

// TestReservedChunksPreventStarvation: without a reservation, one thread
// could take the whole instruction queue; the reservation guarantees each
// thread can always dispatch a chunk eventually. We check the invariant
// directly: a two-thread run never lets one thread's IQ occupancy exceed
// capacity minus the other's reserved chunk.
func TestReservedChunksPreventStarvation(t *testing.T) {
	cfg := DefaultConfig()
	prog := tinyLoop(2000)
	core := NewCore(0, cfg, nil)
	for i := 0; i < 2; i++ {
		memImg := vm.NewMemory()
		vm.Load(prog, memImg)
		core.AddContext(NewContext(RoleSingle, i, vm.NewThread(i, prog, memImg), 0))
	}
	core.FinalizeQueues()
	for i := 0; i < 20000; i++ {
		core.Step()
		total := core.iqUsed[0] + core.iqUsed[1]
		for _, c := range core.Contexts() {
			if total-c.iqN() > 2*cfg.IQHalfCap-rmt.ChunkSize {
				t.Fatalf("cycle %d: thread %d starved (other occupancy %d)",
					i, c.TID, total-c.iqN())
			}
		}
	}
}
