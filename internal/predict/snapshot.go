package predict

import (
	"repro/internal/snap"
	"repro/internal/stats"
)

// Snapshot support for the prediction structures. Table geometry comes from
// configuration; only table contents, per-thread histories, and counters
// travel. 8-bit counter tables are written as byte strings to keep the
// stream compact (a branch predictor alone is three 32K-entry tables). The
// word tables — line and jump targets, store-set IDs and last-fetched-store
// tags — hold their default in nearly every entry, so they travel as sparse
// tables whose size tracks the entries a run has trained.

// SnapshotTo writes the line predictor's table and counters.
func (l *LinePredictor) SnapshotTo(w *snap.Writer) {
	snap.WriteSparse(w, l.table, 0)
	w.U64(l.Lookups.Value())
	w.U64(l.Wrong.Value())
}

// RestoreFrom reads state written by SnapshotTo.
func (l *LinePredictor) RestoreFrom(r *snap.Reader) {
	snap.ReadSparse(r, l.table, 0)
	l.Lookups = stats.Counter(r.U64())
	l.Wrong = stats.Counter(r.U64())
}

// SnapshotTo writes the branch predictor's tables, histories, and counters.
func (b *BranchPredictor) SnapshotTo(w *snap.Writer) {
	w.Bytes(b.bimodal)
	w.Bytes(b.gshare)
	w.Bytes(b.choice)
	for _, h := range b.history {
		w.U64(h)
	}
	w.U64(b.Lookups.Value())
	w.U64(b.Wrong.Value())
}

// RestoreFrom reads state written by SnapshotTo.
func (b *BranchPredictor) RestoreFrom(r *snap.Reader) {
	for _, dst := range [][]uint8{b.bimodal, b.gshare, b.choice} {
		src := r.Bytes()
		if r.Err() != nil {
			return
		}
		if len(src) != len(dst) {
			r.Failf("branch predictor table size mismatch")
			return
		}
		copy(dst, src)
	}
	for i := range b.history {
		b.history[i] = r.U64()
	}
	b.Lookups = stats.Counter(r.U64())
	b.Wrong = stats.Counter(r.U64())
}

// SnapshotTo writes the return address stack contents and pointers.
func (ras *RAS) SnapshotTo(w *snap.Writer) {
	w.U64(uint64(len(ras.stack)))
	for _, v := range ras.stack {
		w.U64(v)
	}
	w.Int(ras.top)
	w.Int(ras.depth)
}

// RestoreFrom reads state written by SnapshotTo.
func (ras *RAS) RestoreFrom(r *snap.Reader) {
	if int(r.U64()) != len(ras.stack) {
		r.Failf("RAS depth mismatch")
		return
	}
	for i := range ras.stack {
		ras.stack[i] = r.U64()
	}
	ras.top = r.Int()
	ras.depth = r.Int()
}

// SnapshotTo writes the jump predictor's table and counters.
func (j *JumpPredictor) SnapshotTo(w *snap.Writer) {
	snap.WriteSparse(w, j.table, 0)
	w.U64(j.Lookups.Value())
	w.U64(j.Wrong.Value())
}

// RestoreFrom reads state written by SnapshotTo.
func (j *JumpPredictor) RestoreFrom(r *snap.Reader) {
	snap.ReadSparse(r, j.table, 0)
	j.Lookups = stats.Counter(r.U64())
	j.Wrong = stats.Counter(r.U64())
}

// SnapshotTo writes the store-sets tables, the cyclic-clear phase, and
// counters. The SSIT's default is -1 (no set), so its entries travel as
// set ID + 1.
func (s *StoreSets) SnapshotTo(w *snap.Writer) {
	snap.WriteSparse(w, s.ssit, -1)
	snap.WriteSparse(w, s.lfst, 0)
	w.U64(s.accesses)
	w.U64(s.Assignments.Value())
	w.U64(s.Violations.Value())
	w.U64(s.Clears.Value())
}

// RestoreFrom reads state written by SnapshotTo.
func (s *StoreSets) RestoreFrom(r *snap.Reader) {
	snap.ReadSparse(r, s.ssit, -1)
	for i, set := range s.ssit {
		if set < -1 || int(set) >= len(s.lfst) {
			r.Failf("store-sets SSIT entry %d names set %d of %d", i, set, len(s.lfst))
			return
		}
	}
	snap.ReadSparse(r, s.lfst, 0)
	s.accesses = r.U64()
	s.Assignments = stats.Counter(r.U64())
	s.Violations = stats.Counter(r.U64())
	s.Clears = stats.Counter(r.U64())
}
