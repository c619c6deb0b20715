// Package mem models the memory hierarchy outside the sphere of
// replication: L1 instruction and data caches (64 KB, 2-way, 64-byte blocks,
// with way prediction), a unified 3 MB 8-way L2, and a flat Rambus-like
// memory behind it, following the paper's Table 1.
//
// Timing is expressed as absolute completion cycles: Access(addr, now)
// returns the cycle at which the data is available. Fills are tracked
// per-line ("readyAt"), so overlapping accesses to an in-flight block
// combine instead of paying the miss twice (MSHR-style behaviour), and
// independent misses overlap freely — the pipeline provides the limit on
// outstanding accesses.
//
// For lockstepped operation the checker interposes on every off-core signal;
// MissExtra models that per-miss checker penalty (8 cycles for the paper's
// realistic Lock8 configuration).
//
// Each cache keeps all its lines in one flat, pointer-free array with a
// per-set count of valid lines (see Cache.lines), so building a core's
// caches costs a handful of allocations whatever the set count, and the
// collector never scans them.
package mem

import (
	"math"
	"slices"

	"repro/internal/stats"
)

// Level is anything that can service a block fetch: a next-level cache or
// memory.
type Level interface {
	// Access requests the block containing addr at cycle now and returns
	// the cycle the block is available.
	Access(addr uint64, now uint64) uint64
}

// FlatMemory is the bottom of the hierarchy: fixed-latency DRAM.
type FlatMemory struct {
	// Latency is the access latency in cycles.
	Latency uint64 //rmtsnap:skip — construction-time config, identical in every snapshot
	// Accesses counts block requests.
	Accesses stats.Counter
}

// Access implements Level.
func (m *FlatMemory) Access(addr uint64, now uint64) uint64 {
	m.Accesses.Inc()
	return now + m.Latency
}

// line is one cache line: its tag (the full block number) and the cycle
// at which its fill completes. Whether a way holds a line is the set's
// count, not a flag of the line's.
type line struct {
	tag     uint64
	readyAt uint64 // cycle at which an in-flight fill completes
}

// Cache is one set-associative cache level.
type Cache struct {
	name      string // construction-time config
	nsets     uint64
	blockBits uint //rmtsnap:skip — construction-time config
	ways      int
	hitLat    uint64 //rmtsnap:skip — construction-time config
	// MissExtra is added to every miss's fill time (lockstep checker
	// interposition penalty; 0 in all non-lockstepped configurations).
	MissExtra uint64 //rmtsnap:skip — construction-time config

	next Level //rmtsnap:skip — hierarchy wiring; the next level snapshots itself

	// lines holds every set's ways in one flat, pointer-free array: set s
	// is lines[s*ways : (s+1)*ways], way 0 = MRU. count[s] is how many of
	// set s's ways hold a line, and those lines are always its first
	// count[s] ways: a fill shifts the valid lines right and installs at
	// way 0, promote moves only valid lines, and nothing invalidates a
	// line. The ways past the count are never read, whatever they hold.
	// The sparse snapshot relies on this.
	lines []line
	count []uint8
	// wayPredict enables way prediction. The predicted way is always the
	// MRU way 0, so a hit in any other way costs one extra cycle.
	wayPredict bool //rmtsnap:skip — construction-time config

	Hits           stats.Counter
	Misses         stats.Counter
	WayMispredicts stats.Counter
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockBytes int
	HitLatency uint64
	WayPredict bool
}

// NewCache builds a cache over next. The set count (size / ways / block)
// need not be a power of two (the 3 MB L2 of Table 1 has 6144 sets); sets
// are indexed block-number-modulo-sets with the full block number as tag.
func NewCache(cfg Config, next Level) *Cache {
	c := new(Cache)
	c.Rebuild(cfg, next)
	return c
}

// Rebuild makes c the empty cache NewCache(cfg, next) builds, reusing its
// line and count arrays when they are large enough. Only the counts are
// cleared: the ways past a set's count are never read (see Cache.lines).
// Everything else, counters and MissExtra included, starts fresh.
func (c *Cache) Rebuild(cfg Config, next Level) {
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	if nsets <= 0 {
		panic("mem: cache must have at least one set")
	}
	if cfg.Ways > math.MaxUint8 {
		panic("mem: cache must have at most 255 ways")
	}
	blockBits := uint(0)
	for 1<<blockBits < cfg.BlockBytes {
		blockBits++
	}
	count := slices.Grow(c.count[:0], nsets)[:nsets]
	clear(count)
	*c = Cache{
		name:       cfg.Name,
		nsets:      uint64(nsets),
		blockBits:  blockBits,
		ways:       cfg.Ways,
		hitLat:     cfg.HitLatency,
		next:       next,
		lines:      slices.Grow(c.lines[:0], nsets*cfg.Ways)[:nsets*cfg.Ways],
		count:      count,
		wayPredict: cfg.WayPredict,
	}
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// BlockBytes returns the block size.
func (c *Cache) BlockBytes() int { return 1 << c.blockBits }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	b := addr >> c.blockBits
	return b % c.nsets, b
}

// set returns set s's valid lines, MRU first.
func (c *Cache) set(s uint64) []line {
	base := s * uint64(c.ways)
	return c.lines[base : base+uint64(c.count[s])]
}

// promote moves way w of set s to MRU position.
func (c *Cache) promote(s uint64, w int) {
	set := c.set(s)
	l := set[w]
	copy(set[1:w+1], set[:w])
	set[0] = l
}

// Access implements Level: look up addr at cycle now, filling from the next
// level on a miss, and return the data-available cycle.
func (c *Cache) Access(addr uint64, now uint64) uint64 {
	done, _ := c.Lookup(addr, now)
	return done
}

// Lookup is Access plus a hit indication, letting the fetch engine tell a
// way-mispredict bubble (hit, done = now+1) from a real miss it must stall
// on.
func (c *Cache) Lookup(addr uint64, now uint64) (uint64, bool) {
	s, tag := c.index(addr)
	for w, l := range c.set(s) {
		if l.tag == tag {
			c.Hits.Inc()
			extra := uint64(0)
			if c.wayPredict && w != 0 {
				// Way misprediction: one retry cycle; promote retrains.
				c.WayMispredicts.Inc()
				extra = 1
			}
			c.promote(s, w)
			done := now + c.hitLat + extra
			if l.readyAt > done {
				done = l.readyAt // fill still in flight
			}
			return done, true
		}
	}
	// Miss: fill from next level, install as MRU (evict LRU when full).
	c.Misses.Inc()
	fill := c.next.Access(addr, now+c.hitLat) + c.MissExtra
	if int(c.count[s]) < c.ways {
		c.count[s]++
	}
	set := c.set(s)
	copy(set[1:], set[:len(set)-1])
	set[0] = line{tag: tag, readyAt: fill}
	return fill, false
}

// Probe reports whether addr currently hits without touching LRU state or
// counters (used by tests and by fetch-ahead heuristics).
func (c *Cache) Probe(addr uint64) bool {
	s, tag := c.index(addr)
	for _, l := range c.set(s) {
		if l.tag == tag {
			return true
		}
	}
	return false
}

// MissRate returns misses / (hits + misses).
func (c *Cache) MissRate() float64 {
	total := c.Hits.Value() + c.Misses.Value()
	if total == 0 {
		return 0
	}
	return float64(c.Misses.Value()) / float64(total)
}

// Hierarchy bundles the per-core L1s with the shared L2 and memory.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	Mem *FlatMemory
}

// HierarchyConfig carries the Table 1 memory-system parameters.
type HierarchyConfig struct {
	L1ISize, L1IWays     int
	L1DSize, L1DWays     int
	L2Size, L2Ways       int
	BlockBytes           int
	L1Latency, L2Latency uint64
	MemLatency           uint64
	// CheckerMissPenalty is added to every L1 miss (Lock8-style checker).
	CheckerMissPenalty uint64
}

// DefaultHierarchyConfig returns the paper's Table 1 memory parameters.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1ISize: 64 << 10, L1IWays: 2,
		L1DSize: 64 << 10, L1DWays: 2,
		L2Size: 3 << 20, L2Ways: 8,
		BlockBytes: 64,
		L1Latency:  0, // the pipeline's M stage covers the L1 hit time
		L2Latency:  12,
		MemLatency: 100,
	}
}

// NewHierarchy builds per-core L1s over a shared L2/memory. Pass the same
// *Cache L2 to share it between cores (CMP); pass nil l2 to build a private
// one from cfg.
func NewHierarchy(cfg HierarchyConfig, shared *Cache) *Hierarchy {
	h := new(Hierarchy)
	h.Rebuild(cfg, shared)
	return h
}

// Rebuild makes h the empty hierarchy NewHierarchy(cfg, shared) builds,
// rebuilding in place the L1s it holds and, when it is to own its L2
// again, the private L2 and memory it owned. A shared L2 belongs to the
// core that owns it and is never rebuilt here.
func (h *Hierarchy) Rebuild(cfg HierarchyConfig, shared *Cache) {
	old := *h
	*h = Hierarchy{L1I: old.L1I, L1D: old.L1D, L2: shared}
	if h.L1I == nil {
		h.L1I, h.L1D = new(Cache), new(Cache)
	}
	if shared == nil {
		h.L2, h.Mem = old.L2, old.Mem
		if h.Mem == nil { // the L2 it held, if any, was shared
			h.L2, h.Mem = new(Cache), new(FlatMemory)
		}
		*h.Mem = FlatMemory{Latency: cfg.MemLatency}
		h.L2.Rebuild(Config{
			Name: "l2", SizeBytes: cfg.L2Size, Ways: cfg.L2Ways,
			BlockBytes: cfg.BlockBytes, HitLatency: cfg.L2Latency,
		}, h.Mem)
	}
	h.L1I.Rebuild(Config{
		Name: "l1i", SizeBytes: cfg.L1ISize, Ways: cfg.L1IWays,
		BlockBytes: cfg.BlockBytes, HitLatency: cfg.L1Latency, WayPredict: true,
	}, h.L2)
	h.L1D.Rebuild(Config{
		Name: "l1d", SizeBytes: cfg.L1DSize, Ways: cfg.L1DWays,
		BlockBytes: cfg.BlockBytes, HitLatency: cfg.L1Latency,
	}, h.L2)
	h.L1I.MissExtra = cfg.CheckerMissPenalty
	h.L1D.MissExtra = cfg.CheckerMissPenalty
}

// mergeEntry is one block-granularity write-combining entry.
type mergeEntry struct {
	block uint64
	done  uint64 // earliest drain cycle
	valid bool
}

// MergeBuffer models the coalescing merge buffer between the store queue and
// the data cache: a small write-combining buffer with a fixed number of
// block-granularity entries, draining one block write per cycle. The
// hardware is a 16-entry CAM, and the model matches: a fixed slot array
// searched linearly, which at this size is faster than a map and never
// allocates after construction.
type MergeBuffer struct {
	blockBits uint         //rmtsnap:skip — construction-time config
	slots     []mergeEntry // fixed length = capacity
	n         int
	dcache    *Cache //rmtsnap:skip — hierarchy wiring; the cache snapshots itself

	Coalesced stats.Counter
	Writes    stats.Counter
}

// NewMergeBuffer returns a merge buffer of capacity entries in front of d.
func NewMergeBuffer(capacity int, blockBytes int, d *Cache) *MergeBuffer {
	m := new(MergeBuffer)
	m.Rebuild(capacity, blockBytes, d)
	return m
}

// Rebuild makes m the empty merge buffer NewMergeBuffer(capacity,
// blockBytes, d) builds, reusing its slot array when it is large enough.
func (m *MergeBuffer) Rebuild(capacity int, blockBytes int, d *Cache) {
	bb := uint(0)
	for 1<<bb < blockBytes {
		bb++
	}
	slots := slices.Grow(m.slots[:0], capacity)[:capacity]
	clear(slots)
	*m = MergeBuffer{
		blockBits: bb,
		slots:     slots,
		dcache:    d,
	}
}

// find returns the index of the valid slot holding block, or -1.
func (m *MergeBuffer) find(block uint64) int {
	for i := range m.slots {
		if m.slots[i].valid && m.slots[i].block == block {
			return i
		}
	}
	return -1
}

// CanAccept reports whether a store to addr can enter at cycle now.
func (m *MergeBuffer) CanAccept(addr uint64, now uint64) bool {
	m.expire(now)
	if m.find(addr>>m.blockBits) >= 0 {
		return true // coalesces into an existing entry
	}
	return m.n < len(m.slots)
}

// Accept enqueues a store to addr at cycle now. Callers must have checked
// CanAccept.
func (m *MergeBuffer) Accept(addr uint64, now uint64) {
	m.Writes.Inc()
	b := addr >> m.blockBits
	if m.find(b) >= 0 {
		m.Coalesced.Inc()
		return
	}
	// The block write reaches the data cache after the write completes;
	// model the cache fill (write-allocate) and hold the entry until then.
	done := m.dcache.Access(addr, now)
	for i := range m.slots {
		if !m.slots[i].valid {
			m.slots[i] = mergeEntry{block: b, done: done, valid: true}
			m.n++
			return
		}
	}
	panic("mem: merge buffer has no free slot despite not being full")
}

func (m *MergeBuffer) expire(now uint64) {
	for i := range m.slots {
		if m.slots[i].valid && m.slots[i].done <= now {
			m.slots[i] = mergeEntry{}
			m.n--
		}
	}
}

// Occupancy returns the number of live entries at cycle now.
func (m *MergeBuffer) Occupancy(now uint64) int {
	m.expire(now)
	return m.n
}
