package mem

import "repro/internal/snap"

// Snapshot support for the memory hierarchy. Geometry (set counts, ways,
// block size, latencies) is configuration and is validated rather than
// restored: decoding targets a cache freshly built from the same Config,
// so only the replacement state, in-flight fills, and counters travel. Way
// order within a set IS the MRU order, so serializing a set way-by-way
// reproduces replacement behavior exactly.
//
// A cache travels sparsely: only its non-empty sets, each as its index, the
// count k of valid lines, and those lines' tags and fill cycles. The valid
// lines of a set are its first k ways and the rest are all-zero (see
// Cache.sets), so k and the prefix determine the whole set, and a stream's
// size tracks the lines a run has touched rather than the cache's capacity.

// Snap visits the cache's mutable state: the count of non-empty sets,
// then each one's index, valid-line count k and k (tag, fill cycle) pairs.
// Decoding clears every set first and latches an error on a geometry
// mismatch or on a set list that is not in canonical form: set indices
// strictly ascending and below the set count, each with 1 to ways valid
// lines.
func (c *Cache) Snap(s *snap.Stream) {
	if !s.Len(int(c.nsets), "cache %q geometry mismatch", c.name) || !s.Len(c.ways, "cache %q geometry mismatch", c.name) {
		return
	}
	live := 0
	for _, set := range c.sets {
		if set[0].valid {
			live++
			if s.Decoding() {
				clear(set) // an empty set is already all-zero
			}
		}
	}
	s.Count(&live, 4*8) // index, k and at least one line's two words
	next := uint64(0)   // lowest index the next set may carry
	for ; live > 0; live-- {
		i, k := next, uint64(0)
		if !s.Decoding() {
			for !c.sets[i][0].valid {
				i++
			}
			for k < uint64(c.ways) && c.sets[i][k].valid {
				k++
			}
		}
		s.U64(&i)
		s.U64(&k)
		switch {
		case s.Err() != nil:
			return
		case i < next || i >= c.nsets:
			s.Failf("cache %q set %d out of order or range", c.name, i)
			return
		case k == 0 || k > uint64(c.ways):
			s.Failf("cache %q set %d holds %d valid lines of %d ways", c.name, i, k, c.ways)
			return
		}
		for j := range c.sets[i][:k] {
			l := &c.sets[i][j]
			l.valid = true // already so when encoding
			s.U64(&l.tag)
			s.U64(&l.readyAt)
		}
		next = i + 1
	}
	snap.Word(s, &c.Hits)
	snap.Word(s, &c.Misses)
	snap.Word(s, &c.WayMispredicts)
}

// Snap visits the flat memory's access counter.
func (m *FlatMemory) Snap(s *snap.Stream) {
	snap.Word(s, &m.Accesses)
}

// Snap visits the merge buffer's slots (slot identity matters: Accept
// fills the first invalid slot, so position is behavior) and counters.
func (m *MergeBuffer) Snap(s *snap.Stream) {
	if !s.Len(len(m.slots), "merge buffer capacity mismatch") {
		return
	}
	for i := range m.slots {
		s.U64(&m.slots[i].block)
		s.U64(&m.slots[i].done)
		s.Bool(&m.slots[i].valid)
	}
	s.Int(&m.n)
	snap.Word(s, &m.Coalesced)
	snap.Word(s, &m.Writes)
}
