package pipeline

import (
	"repro/internal/isa"
	"repro/internal/ringq"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Machine-state snapshot/restore. SnapshotTo serializes everything that
// changes as the machine steps — cycle counters, committed memories, cache
// and predictor state, per-context architectural state, every pipeline
// queue's dynamic instructions (with their pointer graph and recycling
// generations), the redundant-pair structures, and statistics — in a fixed
// deterministic order. RestoreFrom reads it back into a machine freshly
// built from the same spec, whose static structure (configs, decode tables,
// closures, queue wiring) it reuses. The contract: a restored machine,
// resumed with Run, is cycle-identical to the machine the snapshot was
// taken from — same stats, same artifacts, byte-identical later snapshots.
//
// What is NOT captured: observer hooks (Trace, Probe, DrainTap, OnCycle),
// metrics registries, and event logs — they are attachments of a particular
// machine instance, not simulated state.

// instRef encoding tags. A reference is either never set, live within the
// owning context's serialized instruction set (with its generation, which
// may lag the target's — that mismatch IS the "producer already recycled"
// signal), or a dangling pointer to an instruction that was dropped from
// the pool entirely (wasSet must stay true, get must stay nil).
const (
	refNil uint64 = iota
	refLive
	refDead
)

// snapCtx carries the per-context instruction index built during
// serialization: first-encounter order over the queues below.
type snapCtx struct {
	insts []*dynInst
	index map[*dynInst]int
}

func (sc *snapCtx) add(d *dynInst) {
	if d == nil {
		return
	}
	if _, ok := sc.index[d]; !ok {
		sc.index[d] = len(sc.insts)
		sc.insts = append(sc.insts, d)
	}
}

// enumerate walks every structure that can hold a live *dynInst in a fixed
// order, assigning first-encounter indices. Aliasing (store lists overlap
// the ROB) is preserved because an already seen pointer keeps its first
// index.
func (c *Context) enumerate() *snapCtx {
	sc := &snapCtx{index: make(map[*dynInst]int, 64)}
	for _, q := range c.instQueues() {
		for i := 0; i < q.Len(); i++ {
			sc.add(q.At(i))
		}
	}
	sc.add(c.pendingBranch)
	for _, d := range c.freeInsts {
		sc.add(d)
	}
	return sc
}

// instQueues returns the context's dynInst rings in serialization order.
// The instruction-queue section follows the window's (writeIQ).
func (c *Context) instQueues() []*ringq.Ring[*dynInst] {
	return []*ringq.Ring[*dynInst]{
		c.rmb, c.rob, c.inFlightStores, c.retiredStores, c.trailRetiredStores,
	}
}

// writeIQ writes the instruction-queue section: the indices of the
// window's IQ residents in age order. The section is derived from the inIQ
// flags; restore checks it against them (readIQ) and rebuilds the wakeup
// lists from the same residents (rebuildWakeup).
func (c *Context) writeIQ(w *snap.Writer, sc *snapCtx) {
	n := 0
	for i := 0; i < c.rob.Len(); i++ {
		if c.rob.At(i).inIQ {
			n++
		}
	}
	w.Int(n)
	for i := 0; i < c.rob.Len(); i++ {
		if d := c.rob.At(i); d.inIQ {
			w.Int(sc.index[d])
		}
	}
}

// readIQ reads the instruction-queue section and rejects one that
// disagrees with the restored window: it must list exactly the window's
// inIQ residents, in strictly increasing age, each unissued and owned by
// this context, as many as iqOccupancy counts.
func (c *Context) readIQ(r *snap.Reader, rc *restCtx) {
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n != c.iqOccupancy {
		r.Failf("instruction queue lists %d entries, occupancy is %d", n, c.iqOccupancy)
		return
	}
	j := 0 // window cursor
	var prev *dynInst
	for i := 0; i < n; i++ {
		idx := r.Int()
		if r.Err() != nil {
			return
		}
		if idx < 0 || idx >= len(rc.insts) {
			r.Failf("instruction queue index %d out of range", idx)
			return
		}
		d := rc.insts[idx]
		for j < c.rob.Len() && !c.rob.At(j).inIQ {
			j++
		}
		if j == c.rob.Len() || c.rob.At(j) != d {
			r.Failf("instruction queue entry %d is not the window's next IQ resident", i)
			return
		}
		j++
		switch {
		case d.issued || d.retired:
			r.Failf("instruction queue entry %d has issued", i)
			return
		case d.tid != c.TID:
			r.Failf("instruction queue entry %d belongs to thread %d, not %d", i, d.tid, c.TID)
			return
		case prev != nil && d.out.Seq <= prev.out.Seq:
			r.Failf("instruction queue entry %d is out of age order", i)
			return
		}
		prev = d
	}
	for ; j < c.rob.Len(); j++ {
		if c.rob.At(j).inIQ {
			r.Failf("window IQ resident missing from the instruction queue")
			return
		}
	}
}

func (sc *snapCtx) writeRef(w *snap.Writer, r instRef) {
	if r.d == nil {
		w.U64(refNil)
		return
	}
	if idx, ok := sc.index[r.d]; ok {
		w.U64(refLive)
		w.Int(idx)
		w.U64(r.gen)
		return
	}
	// The target was recycled and dropped from the pool; only wasSet/get
	// semantics survive.
	w.U64(refDead)
}

// restCtx is the restore-side counterpart: the rebuilt instruction set plus
// one shared tombstone for dangling references.
type restCtx struct {
	insts []*dynInst
	dead  *dynInst
}

func (rc *restCtx) readRef(r *snap.Reader) instRef {
	switch r.U64() {
	case refNil:
		return instRef{}
	case refLive:
		idx := r.Int()
		gen := r.U64()
		if idx < 0 || idx >= len(rc.insts) {
			r.Failf("instruction reference %d out of range", idx)
			return instRef{}
		}
		return instRef{d: rc.insts[idx], gen: gen}
	case refDead:
		// gen 0 against the tombstone's gen 1: wasSet true, get nil.
		return instRef{d: rc.dead}
	default:
		r.Failf("bad instruction reference tag")
		return instRef{}
	}
}

func writeOutcome(w *snap.Writer, o *vm.Outcome) {
	w.U64(o.Seq)
	w.U64(o.PC)
	w.U64(uint64(o.Instr.Op))
	w.U64(uint64(o.Instr.Rd))
	w.U64(uint64(o.Instr.Ra))
	w.U64(uint64(o.Instr.Rb))
	w.I64(o.Instr.Imm)
	w.U64(o.NextPC)
	w.Bool(o.Taken)
	w.U64(o.Addr)
	w.Int(o.Size)
	w.U64(o.Value)
	w.U64(o.DestVal)
	w.Bool(o.Halted)
	w.Bool(o.Trap)
}

func readOutcome(r *snap.Reader, o *vm.Outcome) {
	o.Seq = r.U64()
	o.PC = r.U64()
	o.Instr.Op = isa.Op(r.U64())
	o.Instr.Rd = isa.Reg(r.U64())
	o.Instr.Ra = isa.Reg(r.U64())
	o.Instr.Rb = isa.Reg(r.U64())
	o.Instr.Imm = r.I64()
	o.NextPC = r.U64()
	o.Taken = r.Bool()
	o.Addr = r.U64()
	o.Size = r.Int()
	o.Value = r.U64()
	o.DestVal = r.U64()
	o.Halted = r.Bool()
	o.Trap = r.Bool()
}

func (sc *snapCtx) writeInst(w *snap.Writer, d *dynInst) {
	writeOutcome(w, &d.out)
	w.Int(d.tid)
	w.U64(uint64(d.kind))
	w.U64(d.fetchCycle)
	w.U64(d.rmbReadyAt)
	w.U64(d.renameCycle)
	w.U64(d.issueCycle)
	w.U64(d.doneCycle)
	w.U64(d.retireCycle)
	w.Bool(d.inIQ)
	w.Bool(d.issued)
	w.Bool(d.retired)
	w.U64(d.earliestIssue)
	w.Int(d.fetchSlot)
	w.Bool(d.upperHalf)
	w.U64(uint64(d.fu))
	sc.writeRef(w, d.srcA)
	sc.writeRef(w, d.srcB)
	sc.writeRef(w, d.srcD)
	sc.writeRef(w, d.depStore)
	w.Bool(d.covered)
	w.Bool(d.partial)
	sc.writeRef(w, d.predictedDep)
	w.Bool(d.mispredicted)
	w.U64(d.sqEntered)
	w.Bool(d.verified)
	w.U64(d.verifiedAt)
	w.Bool(d.drained)
	w.Bool(d.forceTerm)
	w.U64(d.loadTag)
	w.U64(d.storeTag)
	w.Bool(d.hasLeadInfo)
	w.Bool(d.leadUpper)
	w.U64(uint64(d.leadFU))
	w.U64(d.gen)
}

func (rc *restCtx) readInst(r *snap.Reader, d *dynInst) {
	readOutcome(r, &d.out)
	d.tid = r.Int()
	d.kind = classKind(r.U64())
	d.fetchCycle = r.U64()
	d.rmbReadyAt = r.U64()
	d.renameCycle = r.U64()
	d.issueCycle = r.U64()
	d.doneCycle = r.U64()
	d.retireCycle = r.U64()
	d.inIQ = r.Bool()
	d.issued = r.Bool()
	d.retired = r.Bool()
	d.earliestIssue = r.U64()
	d.fetchSlot = r.Int()
	d.upperHalf = r.Bool()
	d.fu = uint8(r.U64())
	d.srcA = rc.readRef(r)
	d.srcB = rc.readRef(r)
	d.srcD = rc.readRef(r)
	d.depStore = rc.readRef(r)
	d.covered = r.Bool()
	d.partial = r.Bool()
	d.predictedDep = rc.readRef(r)
	d.mispredicted = r.Bool()
	d.sqEntered = r.U64()
	d.verified = r.Bool()
	d.verifiedAt = r.U64()
	d.drained = r.Bool()
	d.forceTerm = r.Bool()
	d.loadTag = r.U64()
	d.storeTag = r.U64()
	d.hasLeadInfo = r.Bool()
	d.leadUpper = r.Bool()
	d.leadFU = uint8(r.U64())
	d.gen = r.U64()
}

func writeThreadStats(w *snap.Writer, ts *stats.ThreadStats) {
	w.U64(ts.Committed.Value())
	w.U64(ts.Loads.Value())
	w.U64(ts.Stores.Value())
	w.U64(ts.Branches.Value())
	w.U64(ts.BranchMispredicts.Value())
	w.U64(ts.LineMispredicts.Value())
	w.U64(ts.LineFetches.Value())
	w.U64(ts.ICacheMisses.Value())
	w.U64(ts.DCacheMisses.Value())
	w.U64(ts.SQFullStalls.Value())
	w.U64(ts.IQFullStalls.Value())
	w.U64(ts.LQFullStalls.Value())
	n, sum := ts.StoreLifetime.State()
	w.U64(n)
	w.F64(sum)
	w.U64(ts.LVQWaits.Value())
}

func readThreadStats(r *snap.Reader, ts *stats.ThreadStats) {
	ts.Committed = stats.Counter(r.U64())
	ts.Loads = stats.Counter(r.U64())
	ts.Stores = stats.Counter(r.U64())
	ts.Branches = stats.Counter(r.U64())
	ts.BranchMispredicts = stats.Counter(r.U64())
	ts.LineMispredicts = stats.Counter(r.U64())
	ts.LineFetches = stats.Counter(r.U64())
	ts.ICacheMisses = stats.Counter(r.U64())
	ts.DCacheMisses = stats.Counter(r.U64())
	ts.SQFullStalls = stats.Counter(r.U64())
	ts.IQFullStalls = stats.Counter(r.U64())
	ts.LQFullStalls = stats.Counter(r.U64())
	n := r.U64()
	sum := r.F64()
	ts.StoreLifetime = stats.MeanFromState(n, sum)
	ts.LVQWaits = stats.Counter(r.U64())
}

// snapshotContext writes one context's mutable state and its dynamic
// instruction graph.
func (c *Context) snapshotContext(w *snap.Writer) {
	c.Arch.SnapshotTo(w)
	writeThreadStats(w, c.Stats)
	w.U64(c.Budget)
	w.U64(c.Warmup)
	w.U64(c.fetchBlockedUntil)
	w.Bool(c.fetchHalted)
	c.ras.SnapshotTo(w)
	w.U64(c.lastChunkStart)
	w.Bool(c.haveLastChunk)
	w.Int(c.lqUsed)
	w.Int(c.sqUsed)
	w.Int(c.iqOccupancy)
	w.U64(c.nextInterruptAt)
	w.U64(c.Interrupts)
	w.U64(c.committed)
	w.U64(c.FinishCycle)
	w.U64(c.WarmCycle)
	w.Bool(c.warmed)

	sc := c.enumerate()
	w.U64(uint64(len(sc.insts)))
	for _, d := range sc.insts {
		sc.writeInst(w, d)
	}
	for _, q := range c.instQueues() {
		w.Int(q.Len())
		for i := 0; i < q.Len(); i++ {
			w.Int(sc.index[q.At(i)])
		}
		if q == c.rob {
			c.writeIQ(w, sc)
		}
	}
	if c.pendingBranch == nil {
		w.Int(-1)
	} else {
		w.Int(sc.index[c.pendingBranch])
	}
	for _, ref := range c.lastInt {
		sc.writeRef(w, ref)
	}
	for _, ref := range c.lastFP {
		sc.writeRef(w, ref)
	}
	w.Int(len(c.freeInsts))
	for _, d := range c.freeInsts {
		w.Int(sc.index[d])
	}
}

// restoreContext reads state written by snapshotContext into a freshly
// built context with the same static configuration.
func (c *Context) restoreContext(r *snap.Reader) {
	c.Arch.RestoreFrom(r)
	readThreadStats(r, c.Stats)
	c.Budget = r.U64()
	c.Warmup = r.U64()
	c.fetchBlockedUntil = r.U64()
	c.fetchHalted = r.Bool()
	c.ras.RestoreFrom(r)
	c.lastChunkStart = r.U64()
	c.haveLastChunk = r.Bool()
	c.lqUsed = r.Int()
	c.sqUsed = r.Int()
	c.iqOccupancy = r.Int()
	c.nextInterruptAt = r.U64()
	c.Interrupts = r.U64()
	c.committed = r.U64()
	c.FinishCycle = r.U64()
	c.WarmCycle = r.U64()
	c.warmed = r.Bool()

	n := r.Count(8)
	rc := &restCtx{insts: make([]*dynInst, n), dead: &dynInst{gen: 1}}
	for i := range rc.insts {
		rc.insts[i] = new(dynInst)
	}
	for _, d := range rc.insts {
		rc.readInst(r, d)
	}
	for _, q := range c.instQueues() {
		for !q.Empty() {
			q.Pop()
		}
		qn := r.Int()
		if r.Err() != nil {
			return
		}
		if qn < 0 || qn > q.Cap() {
			r.Failf("queue length %d exceeds capacity %d", qn, q.Cap())
			return
		}
		for i := 0; i < qn; i++ {
			idx := r.Int()
			if idx < 0 || idx >= len(rc.insts) {
				r.Failf("queue element index %d out of range", idx)
				return
			}
			q.Push(rc.insts[idx])
		}
		if q == c.rob {
			c.readIQ(r, rc)
		}
	}
	if idx := r.Int(); idx < 0 {
		c.pendingBranch = nil
	} else if idx < len(rc.insts) {
		c.pendingBranch = rc.insts[idx]
	} else {
		r.Failf("pending branch index out of range")
		return
	}
	for i := range c.lastInt {
		c.lastInt[i] = rc.readRef(r)
	}
	for i := range c.lastFP {
		c.lastFP[i] = rc.readRef(r)
	}
	nf := r.Int()
	if r.Err() != nil {
		return
	}
	if nf < 0 || nf > cap(c.freeInsts) {
		r.Failf("free pool length %d exceeds capacity %d", nf, cap(c.freeInsts))
		return
	}
	c.freeInsts = c.freeInsts[:0]
	for i := 0; i < nf; i++ {
		idx := r.Int()
		if idx < 0 || idx >= len(rc.insts) {
			r.Failf("free pool index %d out of range", idx)
			return
		}
		c.freeInsts = append(c.freeInsts, rc.insts[idx])
	}
}

// snapshotCore writes one core's mutable state, then its contexts.
func (co *Core) snapshotCore(w *snap.Writer) {
	w.U64(co.cycle)
	w.Int(co.iqUsed[0])
	w.Int(co.iqUsed[1])
	w.Int(co.inFlight)
	w.Int(co.fetchRR)
	w.Int(co.dispatchRR)
	w.U64(co.Retired)
	co.hier.L1I.SnapshotTo(w)
	co.hier.L1D.SnapshotTo(w)
	ownL2 := co.hier.Mem != nil
	w.Bool(ownL2)
	if ownL2 {
		co.hier.L2.SnapshotTo(w)
		co.hier.Mem.SnapshotTo(w)
	}
	co.mergeBuf.SnapshotTo(w)
	co.linePred.SnapshotTo(w)
	co.branchPred.SnapshotTo(w)
	co.jumpPred.SnapshotTo(w)
	co.storeSets.SnapshotTo(w)
	w.Int(len(co.ctxs))
	for _, c := range co.ctxs {
		c.snapshotContext(w)
	}
}

// restoreCore reads state written by snapshotCore.
func (co *Core) restoreCore(r *snap.Reader) {
	co.cycle = r.U64()
	co.iqUsed[0] = r.Int()
	co.iqUsed[1] = r.Int()
	co.inFlight = r.Int()
	co.fetchRR = r.Int()
	co.dispatchRR = r.Int()
	co.Retired = r.U64()
	co.hier.L1I.RestoreFrom(r)
	co.hier.L1D.RestoreFrom(r)
	ownL2 := r.Bool()
	if ownL2 != (co.hier.Mem != nil) {
		r.Failf("core %d L2 ownership mismatch", co.ID)
		return
	}
	if ownL2 {
		co.hier.L2.RestoreFrom(r)
		co.hier.Mem.RestoreFrom(r)
	}
	co.mergeBuf.RestoreFrom(r)
	co.linePred.RestoreFrom(r)
	co.branchPred.RestoreFrom(r)
	co.jumpPred.RestoreFrom(r)
	co.storeSets.RestoreFrom(r)
	if r.Int() != len(co.ctxs) {
		r.Failf("core %d context count mismatch", co.ID)
		return
	}
	for _, c := range co.ctxs {
		c.restoreContext(r)
		if r.Err() != nil {
			return
		}
	}
	co.rebuildWakeup()
}

// sharedMemories returns the distinct committed memory images across all
// contexts, in first-encounter (core, context) order. Redundant pairs share
// one image; the order is deterministic because it follows the machine's
// fixed structure, not pointer values.
func (m *Machine) sharedMemories() []*vm.Memory {
	var mems []*vm.Memory
	seen := make(map[*vm.Memory]bool, 4)
	for _, co := range m.Cores {
		for _, c := range co.ctxs {
			b := c.Arch.Mem.Backing()
			if !seen[b] {
				seen[b] = true
				mems = append(mems, b)
			}
		}
	}
	return mems
}

// SnapshotTo writes the machine's complete mutable state.
func (m *Machine) SnapshotTo(w *snap.Writer) {
	w.U64(m.Cycles)
	w.U64(m.wdLastProgress)
	w.U64(m.wdLastRetired)
	mems := m.sharedMemories()
	w.Int(len(mems))
	for _, mem := range mems {
		mem.SnapshotTo(w)
	}
	w.Int(len(m.Cores))
	for _, co := range m.Cores {
		co.snapshotCore(w)
	}
	w.Int(len(m.Pairs))
	for _, p := range m.Pairs {
		p.SnapshotTo(w)
	}
}

// RestoreFrom reads state written by SnapshotTo into a machine built from
// the same spec. It returns the reader's first error, if any; on error the
// machine's state is undefined and it must be discarded.
func (m *Machine) RestoreFrom(r *snap.Reader) error {
	m.Cycles = r.U64()
	m.wdLastProgress = r.U64()
	m.wdLastRetired = r.U64()
	mems := m.sharedMemories()
	if r.Int() != len(mems) {
		r.Failf("shared memory count mismatch")
		return r.Err()
	}
	for _, mem := range mems {
		mem.RestoreFrom(r)
	}
	if r.Int() != len(m.Cores) {
		r.Failf("core count mismatch")
		return r.Err()
	}
	for _, co := range m.Cores {
		co.restoreCore(r)
		if r.Err() != nil {
			return r.Err()
		}
	}
	if r.Int() != len(m.Pairs) {
		r.Failf("pair count mismatch")
		return r.Err()
	}
	for _, p := range m.Pairs {
		p.RestoreFrom(r)
	}
	return r.Err()
}

// Snapshot serializes the machine into a standalone byte stream.
func (m *Machine) Snapshot() []byte {
	w := snap.NewWriter()
	m.SnapshotTo(w)
	return w.Finish()
}

// Restore replaces the machine's mutable state with a stream produced by
// Snapshot on an identically built machine.
func (m *Machine) Restore(data []byte) error {
	r, err := snap.NewReader(data)
	if err != nil {
		return err
	}
	if err := m.RestoreFrom(r); err != nil {
		return err
	}
	return r.Done()
}

// PoolGenerations returns the recycling generation of every instruction in
// the context's free pool, in pool order — a debug accessor for the
// snapshot regression tests (generations must survive restore, or stale
// instRefs would alias recycled instructions).
func (c *Context) PoolGenerations() []uint64 {
	gens := make([]uint64, len(c.freeInsts))
	for i, d := range c.freeInsts {
		gens[i] = d.gen
	}
	return gens
}
