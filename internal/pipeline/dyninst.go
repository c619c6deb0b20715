package pipeline

import (
	"repro/internal/isa"
	"repro/internal/vm"
)

// dynInst is one dynamic instruction flowing through the timing model.
type dynInst struct {
	out vm.Outcome
	tid int
	// kind is the opcode's class, read from the opcode table at fetch and
	// again on restore.
	kind isa.Class

	// Pipeline event cycles.
	fetchCycle  uint64
	rmbReadyAt  uint64 // visible to the PBOX (fetch + IBOX latency)
	renameCycle uint64
	issueCycle  uint64
	doneCycle   uint64 // result available (bypass) / store data in SQ
	retireCycle uint64

	inIQ    bool
	issued  bool
	retired bool

	// earliestIssue gates issue (queue-front latency, LVQ retry).
	earliestIssue uint64

	// fetchSlot is the instruction's position within its fetch chunk; the
	// QBOX assigns the issue-queue half from it (§3.3).
	fetchSlot int
	// upperHalf is the issue-queue half the instruction was dispatched to.
	upperHalf bool
	// fu is the functional unit the instruction issued on (half*4+slot).
	fu uint8

	// Producers for operand readiness (zero ref = architecturally ready).
	srcA, srcB, srcD instRef

	// Memory dependence: the youngest older overlapping store. covered
	// means full containment (store-queue forwarding possible); partial
	// means the store must drain before the load may access the cache.
	depStore instRef
	covered  bool
	partial  bool
	// predictedDep is the store-sets-predicted producer store.
	predictedDep instRef

	// Branch state, decided at fetch against the oracle outcome.
	mispredicted bool

	// Store lifecycle.
	sqEntered  uint64 // cycle the SQ entry was allocated (rename)
	verified   bool   // leading: output comparison done
	verifiedAt uint64
	drained    bool // left the SQ for the merge buffer / dropped
	forceTerm  bool // chunk must terminate after this store (partial fwd)

	// RMT correlation tags (non-zero when applicable).
	loadTag  uint64
	storeTag uint64

	// Leading-copy resource info delivered through the LPQ (trailing
	// copies only).
	hasLeadInfo bool
	leadUpper   bool
	leadFU      uint8

	// gen is the recycling generation, incremented each time the dynInst
	// returns to its context's free list. instRefs snapshot it so stale
	// references to a recycled instruction resolve to "gone" instead of
	// aliasing whatever dynamic instruction reuses the storage.
	gen uint64

	// Issue wakeup (wakeup.go). An unissued instruction-queue resident is
	// on exactly one list, linked through wakeNext: the consumers list of a
	// producer that has not issued, a timing-wheel slot, or its context's
	// ready list. Each link is cleared when the list gives the
	// instruction up.
	wakeNext *dynInst // wakeup list link, rebuilt on restore from the IQ residents
	// consumers heads the IQ residents waiting for this instruction to
	// issue.
	consumers *dynInst // wakeup list head, rebuilt on restore from the IQ residents
	// wakeAt is the cycle a timing-wheel entry's operands reach the bypass
	// network.
	wakeAt uint64 // derived from earliestIssue and the producers' doneCycle on restore
}

// instRef is a recycling-safe reference to a dynInst: the pointer plus the
// generation it was taken at. An instruction is only ever recycled after it
// has retired (and, for stores, drained), so a reference whose generation no
// longer matches denotes a retired/drained producer — exactly the condition
// under which the unpooled model treated the pointer as satisfied. get
// therefore returns nil both for the never-set reference and for one whose
// target has been recycled, and callers treat nil as "architecturally done".
type instRef struct {
	d   *dynInst
	gen uint64
}

// ref captures a recycling-safe reference to d (nil-safe).
func ref(d *dynInst) instRef {
	if d == nil {
		return instRef{}
	}
	return instRef{d: d, gen: d.gen}
}

// get returns the referenced instruction, or nil if the reference was never
// set or its target has since been recycled.
func (r instRef) get() *dynInst {
	if r.d != nil && r.d.gen == r.gen {
		return r.d
	}
	return nil
}

// wasSet reports whether the reference was ever set, regardless of whether
// the target has been recycled since (used where the unpooled model tested
// pointer non-nilness without dereferencing).
func (r instRef) wasSet() bool { return r.d != nil }

func (d *dynInst) isLoad() bool  { return d.kind == isa.ClassLoad }
func (d *dynInst) isStore() bool { return d.kind == isa.ClassStore }
func (d *dynInst) isMem() bool   { return d.isLoad() || d.isStore() }

// overlaps reports whether two memory accesses touch any common byte.
func overlaps(a1 uint64, s1 int, a2 uint64, s2 int) bool {
	return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
}

// covers reports whether access (a1,s1) fully contains (a2,s2).
func covers(a1 uint64, s1 int, a2 uint64, s2 int) bool {
	return a1 <= a2 && a1+uint64(s1) >= a2+uint64(s2)
}
