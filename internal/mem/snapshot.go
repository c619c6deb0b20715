package mem

import (
	"repro/internal/snap"
	"repro/internal/stats"
)

// Snapshot support for the memory hierarchy. Geometry (set counts, ways,
// block size, latencies) is configuration and is validated rather than
// restored: RestoreFrom targets a cache freshly built from the same Config,
// so only the replacement state, in-flight fills, and counters travel. Way
// order within a set IS the MRU order, so serializing a set way-by-way
// reproduces replacement behavior exactly.
//
// A cache travels sparsely: only its non-empty sets, each as its index, the
// count k of valid lines, and those lines' tags and fill cycles. The valid
// lines of a set are its first k ways and the rest are all-zero (see
// Cache.sets), so k and the prefix determine the whole set, and a stream's
// size tracks the lines a run has touched rather than the cache's capacity.

// SnapshotTo writes the cache's mutable state.
func (c *Cache) SnapshotTo(w *snap.Writer) {
	w.U64(c.nsets)
	w.Int(c.ways)
	live := 0
	for _, set := range c.sets {
		if set[0].valid {
			live++
		}
	}
	w.Int(live)
	for s, set := range c.sets {
		k := 0
		for k < len(set) && set[k].valid {
			k++
		}
		if k == 0 {
			continue
		}
		w.Int(s)
		w.Int(k)
		for _, l := range set[:k] {
			w.U64(l.tag)
			w.U64(l.readyAt)
		}
	}
	w.U64(c.Hits.Value())
	w.U64(c.Misses.Value())
	w.U64(c.WayMispredicts.Value())
}

// RestoreFrom reads state written by SnapshotTo into an identically
// configured cache, latching a reader error on geometry mismatch or on a
// set list that is not in canonical form: set indices strictly ascending
// and below the set count, each with 1 to ways valid lines.
func (c *Cache) RestoreFrom(r *snap.Reader) {
	if r.U64() != c.nsets || r.Int() != c.ways {
		r.Failf("cache %q geometry mismatch", c.name)
		return
	}
	live := r.Count(4 * 8) // index, k and at least one line's two words
	for _, set := range c.sets {
		if set[0].valid { // an empty set is already all-zero
			clear(set)
		}
	}
	next := uint64(0) // lowest index the next set may carry
	for ; live > 0; live-- {
		s, k := r.U64(), r.U64()
		switch {
		case r.Err() != nil:
			return
		case s < next || s >= c.nsets:
			r.Failf("cache %q set %d out of order or range", c.name, s)
			return
		case k == 0 || k > uint64(c.ways):
			r.Failf("cache %q set %d holds %d valid lines of %d ways", c.name, s, k, c.ways)
			return
		}
		set := c.sets[s]
		for i := range set[:k] {
			set[i] = line{tag: r.U64(), valid: true, readyAt: r.U64()}
		}
		next = s + 1
	}
	c.Hits = stats.Counter(r.U64())
	c.Misses = stats.Counter(r.U64())
	c.WayMispredicts = stats.Counter(r.U64())
}

// SnapshotTo writes the flat memory's access counter.
func (m *FlatMemory) SnapshotTo(w *snap.Writer) {
	w.U64(m.Accesses.Value())
}

// RestoreFrom reads state written by SnapshotTo.
func (m *FlatMemory) RestoreFrom(r *snap.Reader) {
	m.Accesses = stats.Counter(r.U64())
}

// SnapshotTo writes the merge buffer's slots (slot identity matters: Accept
// fills the first invalid slot, so position is behavior) and counters.
func (m *MergeBuffer) SnapshotTo(w *snap.Writer) {
	w.Int(len(m.slots))
	for _, s := range m.slots {
		w.U64(s.block)
		w.U64(s.done)
		w.Bool(s.valid)
	}
	w.Int(m.n)
	w.U64(m.Coalesced.Value())
	w.U64(m.Writes.Value())
}

// RestoreFrom reads state written by SnapshotTo into an identically sized
// merge buffer.
func (m *MergeBuffer) RestoreFrom(r *snap.Reader) {
	if r.Int() != len(m.slots) {
		r.Failf("merge buffer capacity mismatch")
		return
	}
	for i := range m.slots {
		m.slots[i].block = r.U64()
		m.slots[i].done = r.U64()
		m.slots[i].valid = r.Bool()
	}
	m.n = r.Int()
	m.Coalesced = stats.Counter(r.U64())
	m.Writes = stats.Counter(r.U64())
}
