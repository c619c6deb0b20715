// Package predict implements the base processor's prediction structures
// (Table 1): the line predictor that drives instruction fetch, a hybrid
// conditional branch predictor, a return address stack, a jump target
// predictor, and a store-sets memory dependence predictor.
//
// Prediction tables are shared between hardware threads (as on the modeled
// machine), so cross-thread aliasing — the reason the paper's shared-line-
// predictor alternative to the line prediction queue performs poorly — is
// captured. Histories are per-thread.
package predict

import (
	"slices"

	"repro/internal/stats"
)

const numThreads = 8 // max hardware thread contexts the predictors index

// --- Line predictor ---

// LinePredictor predicts the next fetch chunk address from the current one.
// The real EV8 line predictor produces (set, way) icache indices; at the
// model's level of abstraction a chunk-start PC prediction is equivalent:
// what matters is whether the fetch engine follows the correct address
// stream, and the observed misprediction rate (the paper cites 14-28%).
type LinePredictor struct {
	mask    uint64   //rmtsnap:skip — derived from construction-time table size
	table   []uint64 // predicted next chunk-start PC, 0 = no prediction
	Lookups stats.Counter
	Wrong   stats.Counter
}

// NewLinePredictor returns a line predictor with 2^bits entries (the base
// machine's 28K-entry predictor is approximated with 32K entries).
func NewLinePredictor(bits uint) *LinePredictor {
	l := new(LinePredictor)
	l.Rebuild(bits)
	return l
}

// Rebuild makes l the untrained predictor NewLinePredictor(bits) builds,
// reusing its table when it is large enough.
func (l *LinePredictor) Rebuild(bits uint) {
	*l = LinePredictor{mask: (1 << bits) - 1, table: table(l.table, 1<<bits, 0)}
}

// table returns t resized to n entries, each set to v, reusing t's array
// when it is large enough: the one way every predictor table is built and
// rebuilt. It fills by doubling copies, which run as block moves.
func table[E uint8 | int32 | uint64](t []E, n int, v E) []E {
	t = slices.Grow(t[:0], n)[:n]
	if n > 0 {
		t[0] = v
		for i := 1; i < n; i *= 2 {
			copy(t[i:], t[:i])
		}
	}
	return t
}

func (l *LinePredictor) idx(pc uint64) uint64 {
	// Chunk-granular index; mix in higher bits to spread programs whose
	// address-space tags sit above bit 40.
	c := pc >> 3
	return (c ^ c>>13 ^ c>>27) & l.mask
}

// Predict returns the predicted next chunk-start PC after the chunk at pc,
// and whether the predictor had any prediction at all.
func (l *LinePredictor) Predict(pc uint64) (uint64, bool) {
	l.Lookups.Inc()
	v := l.table[l.idx(pc)]
	return v, v != 0
}

// Train records the observed next chunk-start PC for the chunk at pc.
func (l *LinePredictor) Train(pc, next uint64) {
	l.table[l.idx(pc)] = next
}

// --- Branch predictor ---

// BranchPredictor is a hybrid (tournament) predictor: a bimodal table and a
// gshare table with a chooser, sized to the order of the base machine's
// 208 Kbit budget. Global history is per hardware thread.
type BranchPredictor struct {
	mask    uint64  //rmtsnap:skip — derived from construction-time table size
	bimodal []uint8 // 2-bit counters
	gshare  []uint8
	choice  []uint8 // 2-bit: >=2 selects gshare
	history [numThreads]uint64

	Lookups stats.Counter
	Wrong   stats.Counter
}

// NewBranchPredictor returns a predictor with three 2^bits-entry 2-bit
// tables (bits=15 gives 3*32K*2 = 192 Kbit, matching Table 1's budget).
func NewBranchPredictor(bits uint) *BranchPredictor {
	b := new(BranchPredictor)
	b.Rebuild(bits)
	return b
}

// Rebuild makes b the untrained predictor NewBranchPredictor(bits) builds,
// every counter weakly not-taken and every history empty, reusing its
// tables when they are large enough.
func (b *BranchPredictor) Rebuild(bits uint) {
	n := 1 << bits
	*b = BranchPredictor{
		mask:    uint64(n - 1),
		bimodal: table(b.bimodal, n, 1),
		gshare:  table(b.gshare, n, 1),
		choice:  table(b.choice, n, 1),
	}
}

func (b *BranchPredictor) bidx(pc uint64) uint64 { return (pc ^ pc>>16) & b.mask }
func (b *BranchPredictor) gidx(pc uint64, tid int) uint64 {
	return (pc ^ b.history[tid]) & b.mask
}

// Predict returns the predicted direction for the conditional branch at pc
// on thread tid.
func (b *BranchPredictor) Predict(pc uint64, tid int) bool {
	b.Lookups.Inc()
	if b.choice[b.bidx(pc)] >= 2 {
		return b.gshare[b.gidx(pc, tid)] >= 2
	}
	return b.bimodal[b.bidx(pc)] >= 2
}

func bump(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// Train updates tables and the thread's global history with the actual
// direction.
func (b *BranchPredictor) Train(pc uint64, tid int, taken bool) {
	bi, gi := b.bidx(pc), b.gidx(pc, tid)
	bimodalRight := (b.bimodal[bi] >= 2) == taken
	gshareRight := (b.gshare[gi] >= 2) == taken
	if bimodalRight != gshareRight {
		bump(&b.choice[bi], gshareRight)
	}
	bump(&b.bimodal[bi], taken)
	bump(&b.gshare[gi], taken)
	b.history[tid] = b.history[tid]<<1 | boolU64(taken)
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- Return address stack ---

// RAS is a per-thread return address stack with wrap-around overflow, as in
// real fetch engines.
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS returns a stack with the given depth.
func NewRAS(depth int) *RAS {
	return &RAS{stack: make([]uint64, depth)}
}

// Push records a call's return address.
func (r *RAS) Push(addr uint64) {
	r.stack[r.top] = addr
	r.top = (r.top + 1) % len(r.stack)
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts a return target; ok is false when the stack is empty.
func (r *RAS) Pop() (uint64, bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.depth--
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	return r.stack[r.top], true
}

// --- Jump target predictor ---

// JumpPredictor predicts indirect-jump targets (non-return JMPs: switch
// tables, dispatch loops) with a last-target table.
type JumpPredictor struct {
	mask  uint64 //rmtsnap:skip — derived from construction-time table size
	table []uint64

	Lookups stats.Counter
	Wrong   stats.Counter
}

// NewJumpPredictor returns a 2^bits-entry last-target predictor.
func NewJumpPredictor(bits uint) *JumpPredictor {
	j := new(JumpPredictor)
	j.Rebuild(bits)
	return j
}

// Rebuild makes j the untrained predictor NewJumpPredictor(bits) builds,
// reusing its table when it is large enough.
func (j *JumpPredictor) Rebuild(bits uint) {
	*j = JumpPredictor{mask: (1 << bits) - 1, table: table(j.table, 1<<bits, 0)}
}

func (j *JumpPredictor) idx(pc uint64) uint64 { return (pc ^ pc>>11) & j.mask }

// Predict returns the predicted target, ok=false if never seen.
func (j *JumpPredictor) Predict(pc uint64) (uint64, bool) {
	j.Lookups.Inc()
	t := j.table[j.idx(pc)]
	return t, t != 0
}

// Train records the actual target.
func (j *JumpPredictor) Train(pc, target uint64) { j.table[j.idx(pc)] = target }

// --- Store sets memory dependence predictor ---

// StoreSets implements the Chrysos/Emer store-sets predictor (SSIT + LFST)
// from Table 1: loads that have previously conflicted with a store are
// placed in that store's set and made to wait for it.
type StoreSets struct {
	ssitMask uint64   //rmtsnap:skip — derived from construction-time table size
	ssit     []int32  // PC -> store set ID, -1 = none
	lfst     []uint64 // store set ID -> tag of last fetched store in set (0 = none)

	// ClearEvery implements the Chrysos/Emer cyclic clearing: after this
	// many accesses all set assignments are forgotten, so a rare collision
	// does not serialise a static load/store pair forever.
	ClearEvery uint64 //rmtsnap:skip — construction-time config
	accesses   uint64

	Assignments stats.Counter
	Violations  stats.Counter
	Clears      stats.Counter
}

// NewStoreSets returns a predictor with 2^bits SSIT entries and maxSets
// store sets (Table 1: 4K entries).
func NewStoreSets(bits uint, maxSets int) *StoreSets {
	s := new(StoreSets)
	s.Rebuild(bits, maxSets)
	return s
}

// Rebuild makes s the empty predictor NewStoreSets(bits, maxSets) builds,
// reusing its tables when they are large enough.
func (s *StoreSets) Rebuild(bits uint, maxSets int) {
	*s = StoreSets{
		ssitMask:   (1 << bits) - 1,
		ssit:       table(s.ssit, 1<<bits, -1),
		lfst:       table(s.lfst, maxSets, 0),
		ClearEvery: 30000,
	}
}

func (s *StoreSets) clear() {
	for i := range s.ssit {
		s.ssit[i] = -1
	}
	for i := range s.lfst {
		s.lfst[i] = 0
	}
}

func (s *StoreSets) idx(pc uint64) uint64 { return (pc ^ pc>>9) & s.ssitMask }

// DependsOn returns the tag of the store instruction the memory op at pc
// should wait for (0 = issue freely). Stores update the LFST with their own
// tag so younger set members chain behind them.
func (s *StoreSets) DependsOn(pc uint64, isStore bool, tag uint64) uint64 {
	s.accesses++
	if s.ClearEvery > 0 && s.accesses >= s.ClearEvery {
		s.accesses = 0
		s.Clears.Inc()
		s.clear()
	}
	set := s.ssit[s.idx(pc)]
	if set < 0 {
		return 0
	}
	dep := s.lfst[set]
	if isStore {
		s.lfst[set] = tag
	}
	return dep
}

// StoreRetired clears the LFST entry if it still names tag.
func (s *StoreSets) StoreRetired(pc uint64, tag uint64) {
	set := s.ssit[s.idx(pc)]
	if set >= 0 && s.lfst[set] == tag {
		s.lfst[set] = 0
	}
}

// Violation records that the load at loadPC conflicted with the store at
// storePC: both are assigned to a common store set.
func (s *StoreSets) Violation(loadPC, storePC uint64) {
	s.Violations.Inc()
	li, si := s.idx(loadPC), s.idx(storePC)
	ls, ss := s.ssit[li], s.ssit[si]
	switch {
	case ls < 0 && ss < 0:
		set := int32(si % uint64(len(s.lfst)))
		s.ssit[li], s.ssit[si] = set, set
		s.Assignments.Inc()
	case ls < 0:
		s.ssit[li] = ss
	case ss < 0:
		s.ssit[si] = ls
	default:
		// Merge: the lower-numbered set wins (declining-set rule).
		if ls < ss {
			s.ssit[si] = ls
		} else {
			s.ssit[li] = ss
		}
	}
}
