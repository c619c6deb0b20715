package rmt

import "repro/internal/stats"

// RVQEntry is one retired leading-copy register result waiting for its
// trailing-copy counterpart.
type RVQEntry struct {
	// PC is the instruction address of the producing instruction.
	PC uint64
	// Val is the destination value the leading copy committed.
	Val uint64
	// ReadyAt is the cycle the entry becomes visible to the trailing
	// copy's retire stage (leading retirement + LVQ forwarding latency).
	ReadyAt uint64
}

// RVQ is the register value queue of the SRTR organisation (Vijaykumar et
// al., DSN 2002): the leading copy enqueues every retired destination
// result in program order, and the trailing copy compares each of its own
// retirements against the head entry before committing. A mismatch is a
// detection *before* either copy's faulty value can reach a checkpoint —
// the property that makes trailing-validated checkpoints safe to roll back
// to. It is a strict FIFO: both copies retire the same dynamic instruction
// stream, so the Nth result of each corresponds.
type RVQ struct {
	entries []RVQEntry
	head    int // index of the oldest entry
	n       int // occupancy

	Pushes     stats.Counter
	FullStalls stats.Counter
	Waits      stats.Counter
	Mismatches stats.Counter
}

// NewRVQ returns an empty register value queue with the given capacity.
func NewRVQ(size int) *RVQ {
	return &RVQ{entries: make([]RVQEntry, size)}
}

// Full reports whether the queue has no free slot (the leading copy must
// stall retirement).
func (q *RVQ) Full() bool { return q.n == len(q.entries) }

// Len returns the current occupancy.
func (q *RVQ) Len() int { return q.n }

// Push enqueues a retired leading-copy result.
func (q *RVQ) Push(pc, val, readyAt uint64) {
	if q.Full() {
		panic("rmt: RVQ overflow (leading retire must stall on Full)")
	}
	q.entries[(q.head+q.n)%len(q.entries)] = RVQEntry{PC: pc, Val: val, ReadyAt: readyAt}
	q.n++
	q.Pushes.Inc()
}

// Front returns the oldest entry, or nil if the queue is empty or the
// entry is not yet visible at cycle now (forwarding latency).
func (q *RVQ) Front(now uint64) *RVQEntry {
	if q.n == 0 {
		return nil
	}
	e := &q.entries[q.head]
	if e.ReadyAt > now {
		return nil
	}
	return e
}

// Pop removes the oldest entry.
func (q *RVQ) Pop() {
	if q.n == 0 {
		panic("rmt: RVQ underflow")
	}
	q.head = (q.head + 1) % len(q.entries)
	q.n--
}
