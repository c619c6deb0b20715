// Package rmt implements the paper's core contribution: the machinery that
// turns one or two SMT cores into a redundantly multithreaded
// fault-detection machine.
//
// A redundant Pair couples a leading and a trailing hardware thread running
// identical copies of one logical program. Values entering the sphere of
// replication are replicated (the load value queue), the trailing thread's
// fetch stream is steered by the leading thread's retired control flow (the
// line prediction queue), and values leaving the sphere are compared (the
// store comparator). The same structures serve SRT (both threads on one
// core), CRT (threads on different cores of a CMP — only the forwarding
// latencies change), and the preferential-space-redundancy extension.
//
// The package is deliberately pipeline-agnostic: it deals in PCs, addresses,
// values, tags and cycle numbers. internal/pipeline drives it.
package rmt

import (
	"fmt"

	"repro/internal/stats"
)

// ChunkSize is the fetch-chunk width: up to eight contiguous instructions,
// matching the base machine's 8-instruction fetch chunks.
const ChunkSize = 8

// --- Load value queue ---

// LVQEntry is one replicated load: the leading thread's retired load address
// and value, tagged with the pair-local load correlation tag assigned by the
// PBOX.
type LVQEntry struct {
	Tag     uint64
	Addr    uint64
	Size    int
	Value   uint64
	ReadyAt uint64 // cycle the entry is visible to the trailing thread
}

// LVQ is the load value queue. Trailing-thread loads look entries up
// associatively by correlation tag, so the trailing thread may issue its
// loads out of order (paper §4.1). The hardware is a small CAM, and the
// model matches: a fixed array of capacity entries searched linearly
// (Tag 0 marks a free slot — correlation tags start at 1), which stays
// allocation-free and beats a map at these sizes (Table 1: 64 entries).
//
// Note the live tag window genuinely requires an associative search: tags
// are pushed sequentially but consumed out of order, so the span of live
// tags can exceed the capacity and a tag-modulo-capacity direct index
// would collide.
type LVQ struct {
	entries    []LVQEntry // fixed length = capacity; Tag==0 slots are free
	n          int
	lastPushed uint64

	Pushes     stats.Counter
	FullStalls stats.Counter
	Waits      stats.Counter
	// AddrMismatches counts trailing loads whose address disagreed with
	// the leading thread's — a detected fault.
	AddrMismatches stats.Counter
}

// NewLVQ returns a load value queue with the given capacity.
func NewLVQ(capacity int) *LVQ {
	return &LVQ{entries: make([]LVQEntry, capacity)}
}

// Full reports whether the queue cannot accept another entry; the leading
// thread's load must then stall at retirement.
func (q *LVQ) Full() bool { return q.n >= len(q.entries) }

// Len returns the current occupancy.
func (q *LVQ) Len() int { return q.n }

// find returns the slot index holding tag, or -1.
func (q *LVQ) find(tag uint64) int {
	for i := range q.entries {
		if q.entries[i].Tag == tag {
			return i
		}
	}
	return -1
}

// Push records a retired leading-thread load. The caller must have checked
// Full.
func (q *LVQ) Push(e LVQEntry) {
	if q.Full() {
		panic("rmt: LVQ overflow (caller must check Full)")
	}
	q.Pushes.Inc()
	if q.lastPushed != 0 && e.Tag != q.lastPushed+1 {
		panic(fmt.Sprintf("rmt: LVQ push tag %d after %d", e.Tag, q.lastPushed))
	}
	if q.lastPushed == 0 && e.Tag != 1 {
		panic(fmt.Sprintf("rmt: first LVQ push tag %d", e.Tag))
	}
	q.lastPushed = e.Tag
	i := q.find(0)
	if i < 0 {
		panic("rmt: LVQ has no free slot despite not being full")
	}
	q.entries[i] = e
	q.n++
}

// Peek reports whether an entry with the given tag exists and, if so, the
// cycle it becomes visible (for issue-retry scheduling).
func (q *LVQ) Peek(tag uint64) (readyAt uint64, ok bool) {
	if i := q.find(tag); i >= 0 {
		return q.entries[i].ReadyAt, true
	}
	return 0, false
}

// Lookup services a trailing-thread load at cycle now. It returns the entry
// and true when the entry exists and has arrived; the entry is consumed.
// If the entry exists but has not yet arrived (forwarding latency), or does
// not exist yet (insufficient slack), it returns false and the load must
// retry.
func (q *LVQ) Lookup(tag uint64, now uint64) (LVQEntry, bool) {
	i := q.find(tag)
	if i < 0 || q.entries[i].ReadyAt > now {
		q.Waits.Inc()
		return LVQEntry{}, false
	}
	e := q.entries[i]
	q.entries[i] = LVQEntry{}
	q.n--
	return e, true
}

// --- Line prediction queue ---

// Chunk is one trailing-thread fetch chunk forwarded through the line
// prediction queue: a contiguous group of up to eight instructions starting
// at StartPC, plus the per-slot issue-queue-half bits the leading thread's
// instructions used (for preferential space redundancy).
type Chunk struct {
	StartPC   uint64
	Count     int
	UpperHalf [ChunkSize]bool
	// FUs records which functional unit each leading instruction executed
	// on, riding along for the space-redundancy statistics.
	FUs     [ChunkSize]uint8
	ReadyAt uint64
	// LoadTags carries the load correlation tags, in slot order, for the
	// loads in this chunk (0 for non-load slots).
	LoadTags [ChunkSize]uint64
	// StoreTags carries store correlation tags likewise.
	StoreTags [ChunkSize]uint64
}

// LPQ is the line prediction queue (paper §4.4): a FIFO of perfect line
// predictions from the leading thread's retirement to the trailing thread's
// fetch stage, with the two head pointers of Figure 4. The active head feeds
// the address driver and advances on ack; the recovery head advances only
// when the fetch completed (e.g., survived the instruction cache), and the
// IBOX may roll the active head back to it after a cache miss.
type LPQ struct {
	capacity int
	buf      []Chunk
	head     int // recovery head index into buf
	active   int // active head offset >= head (entries between are "spoken for")
	tail     int
	n        int

	Pushes     stats.Counter
	Rollbacks  stats.Counter
	FullStalls stats.Counter
}

// NewLPQ returns a line prediction queue holding capacity chunks.
func NewLPQ(capacity int) *LPQ {
	return &LPQ{capacity: capacity, buf: make([]Chunk, capacity)}
}

// Full reports whether the queue cannot accept another chunk; leading-thread
// retirement must then stall.
func (q *LPQ) Full() bool { return q.n >= q.capacity }

// Len returns the number of chunks between the recovery head and the tail.
func (q *LPQ) Len() int { return q.n }

// PendingAtActive returns the number of chunks available at the active head.
func (q *LPQ) PendingAtActive() int { return q.n - q.active }

// Push appends a chunk. The caller must have checked Full.
func (q *LPQ) Push(c Chunk) {
	if q.Full() {
		panic("rmt: LPQ overflow (caller must check Full)")
	}
	q.Pushes.Inc()
	q.buf[q.tail] = c
	q.tail = (q.tail + 1) % q.capacity
	q.n++
}

// PeekActive returns the chunk at the active head if one is present and has
// arrived by cycle now.
func (q *LPQ) PeekActive(now uint64) (Chunk, bool) {
	if q.active >= q.n {
		return Chunk{}, false
	}
	c := q.buf[(q.head+q.active)%q.capacity]
	if c.ReadyAt > now {
		return Chunk{}, false
	}
	return c, true
}

// Ack advances the active head: the address driver accepted the prediction.
func (q *LPQ) Ack() {
	if q.active >= q.n {
		panic("rmt: LPQ ack past tail")
	}
	q.active++
}

// Complete advances the recovery head: the oldest outstanding chunk's
// instructions were successfully fetched from the cache.
func (q *LPQ) Complete() {
	if q.active == 0 || q.n == 0 {
		panic("rmt: LPQ complete without outstanding ack")
	}
	q.head = (q.head + 1) % q.capacity
	q.active--
	q.n--
}

// Rollback moves the active head back to the recovery head, re-issuing the
// sequence of predictions (instruction cache miss handling, Figure 4).
func (q *LPQ) Rollback() {
	if q.active > 0 {
		q.Rollbacks.Inc()
	}
	q.active = 0
}

// --- Chunk aggregation at the QBOX end ---

// Aggregator builds trailing-thread fetch chunks from the leading thread's
// retirement stream, implementing the chunk-termination rules of §4.4.2:
// non-contiguous PCs, the 8-instruction limit, forced termination for
// memory barriers and partial-forwarding hazards, and taken-branch merging
// (a mispredicted-taken branch that fell through stays contiguous and keeps
// extending the chunk).
type Aggregator struct {
	lpq *LPQ //rmtsnap:skip — wiring to the queue, which snapshots itself

	cur     Chunk
	started bool
	nextPC  uint64

	ForcedTerminations stats.Counter
}

// NewAggregator returns an aggregator feeding lpq.
func NewAggregator(lpq *LPQ) *Aggregator {
	return &Aggregator{lpq: lpq}
}

// CanAdd reports whether another retired instruction can currently be
// absorbed (there is room in the chunk or in the LPQ for a flush).
func (a *Aggregator) CanAdd() bool {
	return !a.lpq.Full()
}

// RetireInfo describes one retiring leading-thread instruction as seen by
// the aggregator.
type RetireInfo struct {
	PC        uint64
	UpperHalf bool
	FU        uint8
	// ChunkStart marks the first instruction of a leading fetch chunk; the
	// aggregator terminates the pending chunk there so trailing chunk slots
	// line up with leading ones (the position-based issue-queue-half
	// assignment of §3.3 then puts corresponding instructions in the same
	// half unless preferential space redundancy redirects them).
	ChunkStart bool
	LoadTag    uint64 // non-zero for loads
	StoreTag   uint64 // non-zero for stores
	// ForceTerminate requests chunk termination *after* this instruction
	// (partial-forward hazard: the store must reach the trailing thread
	// before the dependent load can proceed).
	ForceTerminate bool
	RetireCycle    uint64
	ForwardLatency uint64
}

// Add absorbs one retired instruction, flushing completed chunks into the
// LPQ. The caller must have checked CanAdd.
func (a *Aggregator) Add(info RetireInfo) {
	if a.started && (info.PC != a.nextPC || a.cur.Count == ChunkSize || info.ChunkStart) {
		a.flush(info.RetireCycle, info.ForwardLatency)
	}
	if !a.started {
		a.cur = Chunk{StartPC: info.PC}
		a.started = true
	}
	slot := a.cur.Count
	a.cur.UpperHalf[slot] = info.UpperHalf
	a.cur.FUs[slot] = info.FU
	a.cur.LoadTags[slot] = info.LoadTag
	a.cur.StoreTags[slot] = info.StoreTag
	a.cur.Count++
	a.nextPC = info.PC + 1
	if info.ForceTerminate {
		a.ForcedTerminations.Inc()
		a.flush(info.RetireCycle, info.ForwardLatency)
	}
}

// ForceFlush pushes any pending partial chunk immediately. The pipeline
// calls this when the oldest unretired leading instruction is a memory
// barrier (or is otherwise blocked on trailing-thread progress), breaking
// the deadlock described in §4.4.2.
func (a *Aggregator) ForceFlush(now uint64, fwdLat uint64) {
	if a.started && a.cur.Count > 0 {
		a.ForcedTerminations.Inc()
		a.flush(now, fwdLat)
	}
}

// HoldsStore reports whether the store with correlation tag tag sits in
// the unflushed chunk, where the trailing thread cannot yet fetch it. Tag
// 0 (an untagged store, and every non-store slot) is never held.
func (a *Aggregator) HoldsStore(tag uint64) bool {
	if !a.started || tag == 0 {
		return false
	}
	for _, t := range a.cur.StoreTags[:a.cur.Count] {
		if t == tag {
			return true
		}
	}
	return false
}

// Pending returns the number of instructions buffered in the unflushed
// chunk.
func (a *Aggregator) Pending() int {
	if !a.started {
		return 0
	}
	return a.cur.Count
}

func (a *Aggregator) flush(now uint64, fwdLat uint64) {
	if !a.started || a.cur.Count == 0 {
		return
	}
	a.cur.ReadyAt = now + fwdLat
	a.lpq.Push(a.cur)
	a.started = false
	a.cur = Chunk{}
}

// --- Store comparator ---

// StoreRecord is one store's identity at the comparator: for the leading
// side, a retired store awaiting verification; for the trailing side, an
// executed store whose address and data have been forwarded.
type StoreRecord struct {
	Tag   uint64
	Addr  uint64
	Size  int
	Value uint64
	// ReadyAt is when the record's address+data are present at the
	// comparator (retirement for the leading side; execution plus
	// forwarding latency for the trailing side).
	ReadyAt uint64
}

// Mismatch describes a detected output divergence — a fault caught at the
// sphere-of-replication boundary.
type Mismatch struct {
	Tag                   uint64
	LeadAddr, TrailAddr   uint64
	LeadValue, TrailValue uint64
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("rmt: store mismatch tag %d: leading %#x=%#x, trailing %#x=%#x",
		m.Tag, m.LeadAddr, m.LeadValue, m.TrailAddr, m.TrailValue)
}

// StoreComparator sits next to the store queue (paper §4.2): it holds
// leading-thread stores until the corresponding trailing-thread store's
// address and data arrive, compares them, and reports when each store is
// verified and may drain out of the sphere of replication.
//
// Both sides are bounded by the store queue (every record corresponds to an
// occupied SQ entry), so they live in small slot arrays searched linearly —
// Tag 0 marks a free slot (store tags start at 1) — rather than maps. The
// arrays grow to the high-water mark once and are then reused forever.
type StoreComparator struct {
	compareLatency uint64 //rmtsnap:skip — timing config fixed at construction
	lead           []StoreRecord
	trail          []StoreRecord
	nLead, nTrail  int

	Comparisons stats.Counter
	Mismatches  stats.Counter
}

// NewStoreComparator returns a comparator whose comparisons take
// compareLatency cycles.
func NewStoreComparator(compareLatency uint64) *StoreComparator {
	return &StoreComparator{compareLatency: compareLatency}
}

// putRecord stores r in the first free slot, extending the array only when
// every slot is occupied (first excursion to a new high-water mark).
func putRecord(slots []StoreRecord, r StoreRecord) []StoreRecord {
	for i := range slots {
		if slots[i].Tag == 0 {
			slots[i] = r
			return slots
		}
	}
	return append(slots, r)
}

// findRecord returns the slot index holding tag, or -1.
func findRecord(slots []StoreRecord, tag uint64) int {
	for i := range slots {
		if slots[i].Tag == tag {
			return i
		}
	}
	return -1
}

// PendingLeading returns the number of unverified leading stores.
func (c *StoreComparator) PendingLeading() int { return c.nLead }

// AddLeading registers a leading-thread store (when its address and data are
// in the store queue).
func (c *StoreComparator) AddLeading(r StoreRecord) {
	c.lead = putRecord(c.lead, r)
	c.nLead++
}

// AddTrailing registers the arrival of the trailing-thread copy of a store.
func (c *StoreComparator) AddTrailing(r StoreRecord) {
	c.trail = putRecord(c.trail, r)
	c.nTrail++
}

// HasTrailing reports whether the trailing copy with the given tag is still
// held (i.e., not yet consumed by Verify); the trailing store-queue entry
// cannot be freed while it is.
func (c *StoreComparator) HasTrailing(tag uint64) bool {
	return findRecord(c.trail, tag) >= 0
}

// Verify attempts to verify the leading store with the given tag at cycle
// now. It returns:
//
//	verifiedAt, nil, true   — match; the store may drain at verifiedAt
//	0, *Mismatch, true      — both copies present but differ (fault!)
//	0, nil, false           — trailing copy not yet arrived
func (c *StoreComparator) Verify(tag uint64, now uint64) (uint64, *Mismatch, bool) {
	li := findRecord(c.lead, tag)
	if li < 0 {
		panic(fmt.Sprintf("rmt: Verify of unknown leading store tag %d", tag))
	}
	ti := findRecord(c.trail, tag)
	if ti < 0 || c.trail[ti].ReadyAt > now {
		return 0, nil, false
	}
	l, t := c.lead[li], c.trail[ti]
	c.lead[li] = StoreRecord{}
	c.trail[ti] = StoreRecord{}
	c.nLead--
	c.nTrail--
	c.Comparisons.Inc()
	when := now
	if l.ReadyAt > when {
		when = l.ReadyAt
	}
	when += c.compareLatency
	if l.Addr != t.Addr || l.Value != t.Value || l.Size != t.Size {
		c.Mismatches.Inc()
		m := &Mismatch{
			Tag:      tag,
			LeadAddr: l.Addr, TrailAddr: t.Addr,
			LeadValue: l.Value, TrailValue: t.Value,
		}
		return 0, m, true
	}
	return when, nil, true
}
