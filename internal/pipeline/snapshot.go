package pipeline

import (
	"slices"

	"repro/internal/ringq"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Machine-state snapshot/restore. Snap visits everything that changes as
// the machine steps — cycle counters, committed memories, cache and
// predictor state, per-context architectural state, every pipeline queue's
// dynamic instructions (with their pointer graph), the redundant-pair
// structures, and statistics — in a fixed deterministic order. Restoring
// targets a machine built from the same spec, whose static structure
// (configs, decode tables, closures, queue wiring) it reuses. The
// contract: a restored machine, resumed with Run, is cycle-identical to the
// machine the snapshot was taken from — same stats, same artifacts,
// byte-identical later snapshots.
//
// A snapshot holds simulated state only. The instruction-record pool and
// the generations that guard references to recycled records are allocator
// state: they decide only whether a reference still reads its target, and
// the snapshot records that outcome directly. A machine that recycles its
// records and one that does not (Config.DisableInstPool) therefore write
// the same bytes.
//
// What is NOT captured: observer hooks (Trace, Probe, OnCycle),
// metrics registries, and event logs — they are attachments of a particular
// machine instance, not simulated state.

// instRef encoding tags. A reference is either never set, live (it reads
// an instruction the context's serialized set lists), or dead: set, but
// its target has retired and left the pipeline, so wasSet stays true and
// get stays nil.
const (
	refNil uint64 = iota
	refLive
	refDead
)

// instTable numbers one context's dynamic instructions for a pass. Every
// pass starts by enumerating the records in flight, assigning
// first-encounter indices over the context's queues. Encoding writes that
// list; decoding reuses those records and the free pool's for the ones the
// stream lists, allocating only the shortfall, with the context's one
// tombstone standing for every dead reference. Each context keeps its
// table, map and all, for the next pass.
type instTable struct {
	insts []*dynInst
	index map[*dynInst]int
	dead  *dynInst // the tombstone, allocated by the context's first restore
}

func (t *instTable) add(d *dynInst) {
	if d == nil {
		return
	}
	if _, ok := t.index[d]; !ok {
		t.index[d] = len(t.insts)
		t.insts = append(t.insts, d)
	}
}

// enumerate walks every structure that can hold a live *dynInst in a fixed
// order, assigning first-encounter indices in the context's table.
// Aliasing (store lists overlap the ROB) is preserved because an already
// seen pointer keeps its first index.
func (c *Context) enumerate() *instTable {
	t := &c.snapTable
	if t.index == nil {
		t.index = make(map[*dynInst]int, 64)
	}
	clear(t.index)
	clear(t.insts)
	t.insts = t.insts[:0]
	for _, q := range c.instQueues() {
		for i := 0; i < q.Len(); i++ {
			t.add(q.At(i))
		}
	}
	t.add(c.pendingBranch)
	return t
}

// reuseRecords gives a decoding table the stream's n records. Every
// instruction exists before any is visited: references point forward as
// well as back. The records the context holds, in flight or free, take the
// stream's first indices, the shortfall comes from one fresh array, and
// the records left over return to the free pool. The caller zeroes each
// listed record before reading its fields, so none keeps a wakeup link or
// a generation from its earlier life.
func (c *Context) reuseRecords(t *instTable, n int) {
	t.insts = append(t.insts, c.freeInsts...)
	clear(c.freeInsts)
	c.freeInsts = c.freeInsts[:0]
	if have := len(t.insts); n > have {
		fresh := make([]dynInst, n-have)
		for i := range fresh {
			t.insts = append(t.insts, &fresh[i])
		}
	}
	for _, d := range t.insts[n:] {
		c.freeInst(d)
	}
	clear(t.insts[n:])
	t.insts = t.insts[:n]
	if t.dead == nil {
		t.dead = &dynInst{gen: 1}
	}
}

// instQueues returns the context's dynInst rings in serialization order.
// The instruction-queue section follows the window's (snapIQ).
func (c *Context) instQueues() [5]*ringq.Ring[*dynInst] {
	return [...]*ringq.Ring[*dynInst]{
		c.rmb, c.rob, c.inFlightStores, c.retiredStores, c.trailRetiredStores,
	}
}

// snapIQ visits the instruction-queue section: the indices of the window's
// IQ residents in age order. The section is derived from the inIQ flags.
// Decoding rejects one that disagrees with the restored window: it must
// list exactly the window's inIQ residents, in strictly increasing age,
// each unissued and owned by this context, as many as iqOccupancy counts.
// The core then rebuilds the wakeup lists from the same residents
// (rebuildWakeup).
func (c *Context) snapIQ(s *snap.Stream, t *instTable) {
	if !s.Decoding() {
		n := 0
		for i := 0; i < c.rob.Len(); i++ {
			if c.rob.At(i).inIQ {
				n++
			}
		}
		s.Int(&n)
		for i := 0; i < c.rob.Len(); i++ {
			if d := c.rob.At(i); d.inIQ {
				idx := t.index[d]
				s.Int(&idx)
			}
		}
		return
	}
	var n int
	s.Int(&n)
	if s.Err() != nil {
		return
	}
	if n != c.iqOccupancy {
		s.Failf("instruction queue lists %d entries, occupancy is %d", n, c.iqOccupancy)
		return
	}
	j := 0 // window cursor
	var prev *dynInst
	for i := 0; i < n; i++ {
		var idx int
		s.Int(&idx)
		if s.Err() != nil {
			return
		}
		if idx < 0 || idx >= len(t.insts) {
			s.Failf("instruction queue index %d out of range", idx)
			return
		}
		d := t.insts[idx]
		for j < c.rob.Len() && !c.rob.At(j).inIQ {
			j++
		}
		if j == c.rob.Len() || c.rob.At(j) != d {
			s.Failf("instruction queue entry %d is not the window's next IQ resident", i)
			return
		}
		j++
		switch {
		case d.issued || d.retired:
			s.Failf("instruction queue entry %d has issued", i)
			return
		case d.tid != c.TID:
			s.Failf("instruction queue entry %d belongs to thread %d, not %d", i, d.tid, c.TID)
			return
		case prev != nil && d.out.Seq <= prev.out.Seq:
			s.Failf("instruction queue entry %d is out of age order", i)
			return
		}
		prev = d
	}
	for ; j < c.rob.Len(); j++ {
		if c.rob.At(j).inIQ {
			s.Failf("window IQ resident missing from the instruction queue")
			return
		}
	}
}

// ref visits one instruction reference: its tag, then for a live one the
// target's index. A reference is live only while it reads its target; a
// set reference that no longer does is written dead.
func (t *instTable) ref(s *snap.Stream, r *instRef) {
	tag, idx := refNil, 0
	if !s.Decoding() && r.wasSet() {
		tag = refDead
		if i, ok := t.index[r.d]; ok && r.get() != nil {
			tag, idx = refLive, i
		}
	}
	s.U64(&tag)
	if tag == refLive {
		s.Int(&idx)
	}
	if !s.Decoding() {
		return
	}
	switch {
	case tag == refNil:
		*r = instRef{}
	case tag == refDead:
		*r = instRef{d: t.dead} // gen 0 against the tombstone's gen 1: wasSet true, get nil
	case tag != refLive:
		s.Failf("bad instruction reference tag")
		*r = instRef{}
	case idx < 0 || idx >= len(t.insts):
		s.Failf("instruction reference %d out of range", idx)
		*r = instRef{}
	default:
		*r = instRef{d: t.insts[idx]} // restored records start at generation 0
	}
}

// elem visits one pointer into the table as its index, with -1 for nil
// where nilOK. Decoding rejects any other index outside the table and
// reports whether the stream is still sound.
func (t *instTable) elem(s *snap.Stream, d **dynInst, nilOK bool, what string) bool {
	i := -1
	if !s.Decoding() && *d != nil {
		i = t.index[*d]
	}
	s.Int(&i)
	if !s.Decoding() {
		return true
	}
	switch {
	case s.Err() != nil:
		return false
	case i == -1 && nilOK:
		*d = nil
	case i < 0 || i >= len(t.insts):
		s.Failf("%s index %d out of range", what, i)
		return false
	default:
		*d = t.insts[i]
	}
	return true
}

// queue visits a ring's elements in order. Decoding refills the ring; its
// capacity bounds the stream's length.
func (t *instTable) queue(s *snap.Stream, q *ringq.Ring[*dynInst]) {
	n := q.Len()
	s.Int(&n)
	if s.Decoding() {
		for !q.Empty() {
			q.Pop()
		}
		if s.Err() == nil && (n < 0 || n > q.Cap()) {
			s.Failf("queue length %d exceeds capacity %d", n, q.Cap())
		}
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		var d *dynInst
		if !s.Decoding() {
			d = q.At(i)
		}
		if t.elem(s, &d, false, "queue element") && s.Decoding() {
			q.Push(d)
		}
	}
}

func (t *instTable) inst(s *snap.Stream, d *dynInst) {
	d.out.Snap(s)
	if s.Decoding() {
		d.kind = d.out.Instr.Op.Info().Class
	}
	s.Int(&d.tid)
	s.U64(&d.fetchCycle)
	s.U64(&d.rmbReadyAt)
	s.U64(&d.renameCycle)
	s.U64(&d.issueCycle)
	s.U64(&d.doneCycle)
	s.U64(&d.retireCycle)
	s.Bool(&d.inIQ)
	s.Bool(&d.issued)
	s.Bool(&d.retired)
	s.U64(&d.earliestIssue)
	s.Int(&d.fetchSlot)
	s.Bool(&d.upperHalf)
	snap.Word(s, &d.fu)
	t.ref(s, &d.srcA)
	t.ref(s, &d.srcB)
	t.ref(s, &d.srcD)
	t.ref(s, &d.depStore)
	s.Bool(&d.covered)
	s.Bool(&d.partial)
	t.ref(s, &d.predictedDep)
	s.Bool(&d.mispredicted)
	s.U64(&d.sqEntered)
	s.Bool(&d.verified)
	s.U64(&d.verifiedAt)
	s.Bool(&d.drained)
	s.Bool(&d.forceTerm)
	s.U64(&d.loadTag)
	s.U64(&d.storeTag)
	s.Bool(&d.hasLeadInfo)
	s.Bool(&d.leadUpper)
	snap.Word(s, &d.leadFU)
}

func snapThreadStats(s *snap.Stream, ts *stats.ThreadStats) {
	snap.Word(s, &ts.Committed)
	snap.Word(s, &ts.Loads)
	snap.Word(s, &ts.Stores)
	snap.Word(s, &ts.Branches)
	snap.Word(s, &ts.BranchMispredicts)
	snap.Word(s, &ts.LineMispredicts)
	snap.Word(s, &ts.LineFetches)
	snap.Word(s, &ts.ICacheMisses)
	snap.Word(s, &ts.DCacheMisses)
	snap.Word(s, &ts.SQFullStalls)
	snap.Word(s, &ts.IQFullStalls)
	snap.Word(s, &ts.LQFullStalls)
	n, sum := ts.StoreLifetime.State()
	s.U64(&n)
	s.F64(&sum)
	if s.Decoding() {
		ts.StoreLifetime = stats.MeanFromState(n, sum)
	}
	snap.Word(s, &ts.LVQWaits)
}

// snap visits one context's mutable state and its dynamic instruction
// graph.
func (c *Context) snap(s *snap.Stream) {
	c.Arch.Snap(s)
	snapThreadStats(s, c.Stats)
	s.U64(&c.Budget)
	s.U64(&c.Warmup)
	s.U64(&c.fetchBlockedUntil)
	s.Bool(&c.fetchHalted)
	c.ras.Snap(s)
	s.U64(&c.lastChunkStart)
	s.Bool(&c.haveLastChunk)
	s.Int(&c.lqUsed)
	s.Int(&c.sqUsed)
	s.Int(&c.iqOccupancy)
	s.U64(&c.nextInterruptAt)
	s.U64(&c.Interrupts)
	s.U64(&c.committed)
	s.U64(&c.FinishCycle)
	s.U64(&c.WarmCycle)
	s.Bool(&c.warmed)

	t := c.enumerate()
	n := len(t.insts)
	s.Count(&n, 8)
	if s.Decoding() {
		c.reuseRecords(t, n)
	}
	for _, d := range t.insts {
		if s.Decoding() {
			*d = dynInst{}
		}
		t.inst(s, d)
	}
	for _, q := range c.instQueues() {
		t.queue(s, q)
		if q == c.rob {
			c.snapIQ(s, t)
		}
	}
	t.elem(s, &c.pendingBranch, true, "pending branch")
	for i := range c.lastInt {
		t.ref(s, &c.lastInt[i])
	}
	for i := range c.lastFP {
		t.ref(s, &c.lastFP[i])
	}
}

// snap visits one core's mutable state, then its contexts. Decoding
// finishes by rebuilding the wakeup lists from the restored IQ residents.
func (co *Core) snap(s *snap.Stream) {
	s.U64(&co.cycle)
	s.Int(&co.iqUsed[0])
	s.Int(&co.iqUsed[1])
	s.Int(&co.inFlight)
	s.Int(&co.fetchRR)
	s.Int(&co.dispatchRR)
	s.U64(&co.Retired)
	co.hier.L1I.Snap(s)
	co.hier.L1D.Snap(s)
	ownL2 := co.hier.Mem != nil
	s.Bool(&ownL2)
	if ownL2 != (co.hier.Mem != nil) {
		s.Failf("core %d L2 ownership mismatch", co.ID)
		return
	}
	if ownL2 {
		co.hier.L2.Snap(s)
		co.hier.Mem.Snap(s)
	}
	co.mergeBuf.Snap(s)
	co.linePred.Snap(s)
	co.branchPred.Snap(s)
	co.jumpPred.Snap(s)
	co.storeSets.Snap(s)
	if !s.Len(len(co.ctxs), "core %d context count mismatch", co.ID) {
		return
	}
	for _, c := range co.ctxs {
		c.snap(s)
		if s.Err() != nil {
			return
		}
	}
	if s.Decoding() {
		co.rebuildWakeup()
	}
}

// sharedMemories returns the distinct committed memory images across all
// contexts, in first-encounter (core, context) order. Redundant pairs share
// one image; the order is deterministic because it follows the machine's
// fixed structure, not pointer values. The list is rebuilt in the
// machine's reused scratch slice.
func (m *Machine) sharedMemories() []*vm.Memory {
	mems := m.memScratch[:0]
	for _, co := range m.Cores {
		for _, c := range co.ctxs {
			if b := c.Arch.Mem.Backing(); !slices.Contains(mems, b) {
				mems = append(mems, b)
			}
		}
	}
	m.memScratch = mems
	return mems
}

// Snap visits the machine's complete mutable state. Decoding targets a
// machine built from the same spec; on error (s.Err) the machine's state
// is undefined and it must be discarded.
func (m *Machine) Snap(s *snap.Stream) {
	s.U64(&m.Cycles)
	s.U64(&m.wdLastProgress)
	s.U64(&m.wdLastRetired)
	mems := m.sharedMemories()
	if !s.Len(len(mems), "shared memory count mismatch") {
		return
	}
	for _, mem := range mems {
		mem.Snap(s)
	}
	if !s.Len(len(m.Cores), "core count mismatch") {
		return
	}
	for _, co := range m.Cores {
		co.snap(s)
		if s.Err() != nil {
			return
		}
	}
	if !s.Len(len(m.Pairs), "pair count mismatch") {
		return
	}
	for _, p := range m.Pairs {
		p.Snap(s)
	}
}
