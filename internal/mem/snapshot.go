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
// lines of a set are its first k ways, and the ways past them are never
// read (see Cache.lines), so k and the prefix determine the whole set, and
// a stream's size tracks the lines a run has touched rather than the
// cache's capacity.

// Snap visits the cache's mutable state: the count of non-empty sets,
// then each one's index, valid-line count k and k (tag, fill cycle) pairs.
// Encoding finds the non-empty sets by scanning the per-set counts.
// Decoding empties every set first and latches an error on a geometry
// mismatch or on a set list that is not in canonical form: set indices
// strictly ascending and below the set count, each with 1 to ways valid
// lines.
func (c *Cache) Snap(s *snap.Stream) {
	// The geometry check is spelled out rather than two Len calls: boxing
	// the name for Len's message would allocate on every pass.
	nsets, ways := int(c.nsets), c.ways
	s.Int(&nsets)
	s.Int(&ways)
	if nsets != int(c.nsets) || ways != c.ways {
		s.Failf("cache %q geometry mismatch", c.name)
	}
	if s.Err() != nil {
		return
	}
	live := 0
	if s.Decoding() {
		clear(c.count)
	} else {
		for _, k := range c.count {
			if k != 0 {
				live++
			}
		}
	}
	s.Count(&live, 4*8) // index, k and at least one line's two words
	next := uint64(0)   // lowest index the next set may carry
	for ; live > 0; live-- {
		var i, k uint64
		if !s.Decoding() {
			for i = next; c.count[i] == 0; i++ {
			}
			k = uint64(c.count[i])
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
		c.count[i] = uint8(k) // already so when encoding
		set := c.set(i)
		for j := range set {
			s.U64(&set[j].tag)
			s.U64(&set[j].readyAt)
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
