package rmt

import "repro/internal/stats"

// Latencies are the forwarding delays between the leading thread's
// structures and the trailing thread's consumers. SRT uses the same-core
// values from the paper's methodology (§6.3); CRT adds the 4-cycle
// cross-processor penalty to each path.
type Latencies struct {
	// LPQForward is QBOX retirement -> IBOX line prediction queue.
	LPQForward uint64
	// LVQForward is QBOX retirement -> MBOX load value queue.
	LVQForward uint64
	// StoreForward is trailing store execution -> store comparator.
	StoreForward uint64
	// Compare is the store comparator's comparison latency.
	Compare uint64
}

// SRTLatencies returns the same-core forwarding delays: 4 cycles to the
// line prediction queue, 2 cycles to the load value queue.
func SRTLatencies() Latencies {
	return Latencies{LPQForward: 4, LVQForward: 2, StoreForward: 0, Compare: 1}
}

// CRTLatencies returns the cross-core forwarding delays: SRT plus the
// 4-cycle inter-processor datapath penalty on every path.
func CRTLatencies() Latencies {
	l := SRTLatencies()
	l.LPQForward += 4
	l.LVQForward += 4
	l.StoreForward += 4
	return l
}

// Pair couples a leading and a trailing hardware thread into one redundant
// logical thread, owning the replication and comparison structures between
// them. For SRT both thread contexts live on one core; for CRT they live on
// different cores and only Latencies changes.
type Pair struct {
	// LogicalID identifies the logical program this pair runs.
	LogicalID int //rmtsnap:skip — identity fixed at construction
	// LeadCore/LeadTID and TrailCore/TrailTID locate the two copies.
	LeadCore, LeadTID   int //rmtsnap:skip — wiring fixed at construction
	TrailCore, TrailTID int //rmtsnap:skip — wiring fixed at construction

	Lat Latencies //rmtsnap:skip — timing config fixed at construction

	LVQ *LVQ
	LPQ *LPQ
	Agg *Aggregator
	Cmp *StoreComparator

	// PreferentialSpaceRedundancy biases the trailing thread's instructions
	// to the opposite issue-queue half from their leading counterparts.
	PreferentialSpaceRedundancy bool //rmtsnap:skip — policy knob fixed at construction

	// LeadCommitted mirrors the leading copy's committed instruction count
	// (used by the slack-fetch ablation policy).
	LeadCommitted uint64

	// InterruptSchedule replicates asynchronous interrupt delivery points:
	// the leading copy records the dynamic instruction count at which it
	// took each interrupt, and the trailing copy takes its interrupts at
	// exactly the same points — the precise input replication the original
	// SRT paper calls for on interrupt inputs.
	InterruptSchedule []uint64
	// TrailInterruptIdx indexes the next schedule entry the trailing copy
	// will consume.
	TrailInterruptIdx int

	// Correlation tag counters. Both copies execute the same dynamic
	// instruction stream, so the Nth load (store) of each copy corresponds;
	// the PBOX models this by assigning tags from per-copy counters.
	leadLoadTag, trailLoadTag   uint64
	leadStoreTag, trailStoreTag uint64

	// Space-redundancy accounting for the Figure 7 experiment: of the
	// instruction pairs where both copies used a schedulable resource, how
	// many landed on the same issue-queue half / same functional unit.
	PairsObserved stats.Counter
	SameHalf      stats.Counter
	SameFU        stats.Counter

	// Detected accumulates fault-detection events (store mismatches, LVQ
	// address mismatches).
	Detected []*Mismatch

	// RVQ, when non-nil, is the SRTR register value queue: every retired
	// leading-copy destination result is checked against the trailing
	// copy's before either commits past a checkpoint boundary. Nil in all
	// non-SRTR modes.
	RVQ *RVQ

	// Protect, when non-nil, is the adaptive-redundancy protection table:
	// Protect[pc] reports whether the instruction at pc runs inside the
	// sphere of replication (tagged, replicated, compared). Instructions
	// outside run untagged: no LVQ/comparator traffic, no detection. Built
	// once from the static vulnerability profile, so both copies always
	// agree — tag sequences stay dense and identical.
	Protect []bool //rmtsnap:skip — static policy table fixed at construction

	// LeadStoresRetired counts leading-copy stores handed to the
	// comparator; StoresVerified counts those the trailing copy has since
	// matched. Their difference bounds the unverified-store window that
	// SRTR checkpoint validation must wait out.
	LeadStoresRetired uint64
	StoresVerified    uint64
}

// NewPair builds the queues for one redundant pair. lvqSize and lpqSize are
// entry counts; cmpLatency is the store comparison latency.
func NewPair(logical int, lat Latencies, lvqSize, lpqSize int) *Pair {
	lpq := NewLPQ(lpqSize)
	return &Pair{
		LogicalID: logical,
		Lat:       lat,
		LVQ:       NewLVQ(lvqSize),
		LPQ:       lpq,
		Agg:       NewAggregator(lpq),
		Cmp:       NewStoreComparator(lat.Compare),
	}
}

// NextLeadLoadTag returns the correlation tag for the leading copy's next
// load. Tags start at 1 so 0 can mean "not a load".
func (p *Pair) NextLeadLoadTag() uint64 {
	p.leadLoadTag++
	return p.leadLoadTag
}

// NextTrailLoadTag returns the correlation tag for the trailing copy's next
// load.
func (p *Pair) NextTrailLoadTag() uint64 {
	p.trailLoadTag++
	return p.trailLoadTag
}

// NextLeadStoreTag returns the correlation tag for the leading copy's next
// store.
func (p *Pair) NextLeadStoreTag() uint64 {
	p.leadStoreTag++
	return p.leadStoreTag
}

// NextTrailStoreTag returns the correlation tag for the trailing copy's next
// store.
func (p *Pair) NextTrailStoreTag() uint64 {
	p.trailStoreTag++
	return p.trailStoreTag
}

// ObserveSpaceRedundancy records one corresponding instruction pair's
// resource assignment for the preferential-space-redundancy statistics.
func (p *Pair) ObserveSpaceRedundancy(leadUpper, trailUpper bool, leadFU, trailFU int) {
	p.PairsObserved.Inc()
	if leadUpper == trailUpper {
		p.SameHalf.Inc()
	}
	if leadFU == trailFU {
		p.SameFU.Inc()
	}
}

// SameHalfFrac returns the fraction of observed pairs that shared an
// issue-queue half.
func (p *Pair) SameHalfFrac() float64 {
	if p.PairsObserved == 0 {
		return 0
	}
	return float64(p.SameHalf) / float64(p.PairsObserved)
}

// SameFUFrac returns the fraction of observed pairs that shared a
// functional unit.
func (p *Pair) SameFUFrac() float64 {
	if p.PairsObserved == 0 {
		return 0
	}
	return float64(p.SameFU) / float64(p.PairsObserved)
}

// Gated reports whether the pair runs with an adaptive protection table
// (some instructions outside the sphere of replication).
func (p *Pair) Gated() bool { return p.Protect != nil }

// ProtectedPC reports whether the instruction at pc is inside the sphere
// of replication. Without a protection table everything is protected;
// out-of-range pcs (trap handlers, tolerant out-of-image fetches) stay
// protected so the gate only ever narrows coverage at analysed sites.
func (p *Pair) ProtectedPC(pc uint64) bool {
	if p.Protect == nil || pc >= uint64(len(p.Protect)) {
		return true
	}
	return p.Protect[pc]
}
