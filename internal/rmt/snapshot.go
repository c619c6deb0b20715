package rmt

import "repro/internal/snap"

// Snapshot support for the redundant-pair structures. Slot positions are
// behavior here — LVQ.Push fills the first free slot, the store comparator
// grows to a high-water mark and reuses slots — so every array is restored
// slot-for-slot at its snapshotted length, not repacked.

func (c *Chunk) snap(s *snap.Stream) {
	s.U64(&c.StartPC)
	s.Int(&c.Count)
	for i := range c.UpperHalf {
		s.Bool(&c.UpperHalf[i])
	}
	for i := range c.FUs {
		snap.Word(s, &c.FUs[i])
	}
	s.U64(&c.ReadyAt)
	for i := range c.LoadTags {
		s.U64(&c.LoadTags[i])
	}
	for i := range c.StoreTags {
		s.U64(&c.StoreTags[i])
	}
}

func (r *StoreRecord) snap(s *snap.Stream) {
	s.U64(&r.Tag)
	s.U64(&r.Addr)
	s.Int(&r.Size)
	s.U64(&r.Value)
	s.U64(&r.ReadyAt)
}

// snapStoreRecords visits one comparator side: its length, then each slot.
func snapStoreRecords(s *snap.Stream, slots *[]StoreRecord) {
	snap.Slice(s, slots, 40)
	for i := range *slots {
		(*slots)[i].snap(s)
	}
}

func (e *LVQEntry) snap(s *snap.Stream) {
	s.U64(&e.Tag)
	s.U64(&e.Addr)
	s.Int(&e.Size)
	s.U64(&e.Value)
	s.U64(&e.ReadyAt)
}

// Snap visits the LVQ's slot array (slot-for-slot) and counters. Decoding
// targets an LVQ of the same capacity.
func (q *LVQ) Snap(s *snap.Stream) {
	if !s.Len(len(q.entries), "LVQ capacity mismatch") {
		return
	}
	for i := range q.entries {
		q.entries[i].snap(s)
	}
	s.Int(&q.n)
	s.U64(&q.lastPushed)
	snap.Word(s, &q.Pushes)
	snap.Word(s, &q.FullStalls)
	snap.Word(s, &q.Waits)
	snap.Word(s, &q.AddrMismatches)
}

// Snap visits the LPQ ring contents and head/tail state. Decoding targets
// an LPQ of the same capacity.
func (q *LPQ) Snap(s *snap.Stream) {
	if !s.Len(q.capacity, "LPQ capacity mismatch") {
		return
	}
	for i := range q.buf {
		q.buf[i].snap(s)
	}
	s.Int(&q.head)
	s.Int(&q.active)
	s.Int(&q.tail)
	s.Int(&q.n)
	snap.Word(s, &q.Pushes)
	snap.Word(s, &q.Rollbacks)
	snap.Word(s, &q.FullStalls)
}

// Snap visits the aggregator's in-progress chunk. The LPQ link is wiring
// and stays with the rebuilt machine.
func (a *Aggregator) Snap(s *snap.Stream) {
	a.cur.snap(s)
	s.Bool(&a.started)
	s.U64(&a.nextPC)
	snap.Word(s, &a.ForcedTerminations)
}

// Snap visits both comparator sides slot-for-slot (the arrays have grown
// to their high-water marks; repacking would change future slot
// assignment) and the counters.
func (c *StoreComparator) Snap(s *snap.Stream) {
	snapStoreRecords(s, &c.lead)
	snapStoreRecords(s, &c.trail)
	s.Int(&c.nLead)
	s.Int(&c.nTrail)
	snap.Word(s, &c.Comparisons)
	snap.Word(s, &c.Mismatches)
}

// Snap visits the ring slot-for-slot plus head/occupancy and the
// statistics counters. Decoding targets an RVQ of the same capacity.
func (q *RVQ) Snap(s *snap.Stream) {
	if !s.Len(len(q.entries), "RVQ capacity mismatch") {
		return
	}
	for i := range q.entries {
		e := &q.entries[i]
		s.U64(&e.PC)
		s.U64(&e.Val)
		s.U64(&e.ReadyAt)
	}
	s.Int(&q.head)
	s.Int(&q.n)
	snap.Word(s, &q.Pushes)
	snap.Word(s, &q.FullStalls)
	snap.Word(s, &q.Waits)
	snap.Word(s, &q.Mismatches)
}

// Snap visits the pair's mutable coupling state: tag counters, the
// interrupt replication schedule, detections, statistics, and the owned
// queue structures. Identity and latency fields are configuration, and
// decoding targets an identically configured pair.
func (p *Pair) Snap(s *snap.Stream) {
	s.U64(&p.LeadCommitted)
	snap.Slice(s, &p.InterruptSchedule, 8)
	for i := range p.InterruptSchedule {
		s.U64(&p.InterruptSchedule[i])
	}
	s.Int(&p.TrailInterruptIdx)
	s.U64(&p.leadLoadTag)
	s.U64(&p.trailLoadTag)
	s.U64(&p.leadStoreTag)
	s.U64(&p.trailStoreTag)
	snap.Word(s, &p.PairsObserved)
	snap.Word(s, &p.SameHalf)
	snap.Word(s, &p.SameFU)
	snap.Slice(s, &p.Detected, 40)
	for i, m := range p.Detected {
		if s.Decoding() {
			m = new(Mismatch)
			p.Detected[i] = m
		}
		s.U64(&m.Tag)
		s.U64(&m.LeadAddr)
		s.U64(&m.TrailAddr)
		s.U64(&m.LeadValue)
		s.U64(&m.TrailValue)
	}
	s.U64(&p.LeadStoresRetired)
	s.U64(&p.StoresVerified)
	p.LVQ.Snap(s)
	p.LPQ.Snap(s)
	p.Agg.Snap(s)
	p.Cmp.Snap(s)
	if p.RVQ != nil {
		p.RVQ.Snap(s)
	}
}
