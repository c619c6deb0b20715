package predict

import "repro/internal/snap"

// Snapshot support for the prediction structures. Table geometry comes from
// configuration; only table contents, per-thread histories, and counters
// travel. 8-bit counter tables are written as byte strings to keep the
// stream compact (a branch predictor alone is three 32K-entry tables). The
// word tables — line and jump targets, store-set IDs and last-fetched-store
// tags — hold their default in nearly every entry, so they travel as sparse
// tables whose size tracks the entries a run has trained.

// Snap visits the line predictor's table and counters.
func (l *LinePredictor) Snap(s *snap.Stream) {
	snap.Sparse(s, l.table, 0)
	snap.Word(s, &l.Lookups)
	snap.Word(s, &l.Wrong)
}

// Snap visits the branch predictor's tables, histories, and counters.
func (b *BranchPredictor) Snap(s *snap.Stream) {
	s.Bytes(b.bimodal)
	s.Bytes(b.gshare)
	s.Bytes(b.choice)
	for i := range b.history {
		s.U64(&b.history[i])
	}
	snap.Word(s, &b.Lookups)
	snap.Word(s, &b.Wrong)
}

// Snap visits the return address stack contents and pointers.
func (ras *RAS) Snap(s *snap.Stream) {
	if !s.Len(len(ras.stack), "RAS depth mismatch") {
		return
	}
	for i := range ras.stack {
		s.U64(&ras.stack[i])
	}
	s.Int(&ras.top)
	s.Int(&ras.depth)
}

// Snap visits the jump predictor's table and counters.
func (j *JumpPredictor) Snap(s *snap.Stream) {
	snap.Sparse(s, j.table, 0)
	snap.Word(s, &j.Lookups)
	snap.Word(s, &j.Wrong)
}

// Snap visits the store-sets tables, the cyclic-clear phase, and counters.
// The SSIT's default is -1 (no set), so its entries travel as set ID + 1.
// Decoding rejects an SSIT entry naming a set the LFST does not have.
func (s *StoreSets) Snap(st *snap.Stream) {
	snap.Sparse(st, s.ssit, -1)
	if st.Decoding() {
		for i, set := range s.ssit {
			if set < -1 || int(set) >= len(s.lfst) {
				st.Failf("store-sets SSIT entry %d names set %d of %d", i, set, len(s.lfst))
				return
			}
		}
	}
	snap.Sparse(st, s.lfst, 0)
	st.U64(&s.accesses)
	snap.Word(st, &s.Assignments)
	snap.Word(st, &s.Violations)
	snap.Word(st, &s.Clears)
}
