// Package vm provides the functional execution substrate: sparse
// byte-addressable memory, per-hardware-thread architectural state, and the
// instruction semantics of the ISA. The timing model (internal/pipeline)
// drives a Thread as its oracle: instructions are executed functionally in
// program order as they are fetched, yielding branch outcomes, effective
// addresses and values that the timing model then charges cycles for.
//
// Redundant threads of the same logical program share one committed Memory
// but each has a private store overlay (the architectural image of the
// sphere of replication's store queue): its own stores are visible to its
// own loads but do not reach committed memory until the simulated machine
// releases them (after output comparison in RMT modes).
package vm

import mathbits "math/bits" // plain `bits` is taken by the float64 view helper

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// Memory is a sparse, byte-addressable, little-endian memory image. The zero
// value is ready to use. All unwritten bytes read as zero.
type Memory struct {
	pages map[uint64]*page

	// Direct-mapped page cache (indexed by low page-number bits): kernel
	// working sets span a few pages, so most accesses skip the map probe.
	// Pure cache over pages — nothing to snapshot.
	cachePN [16]uint64 //rmtsnap:skip — derived cache
	cacheP  [16]*page  // derived cache

	// snapPNs holds the sorted numbers of the pages resident at the start
	// of the last snapshot pass, so listing them allocates nothing once it
	// has grown.
	snapPNs []uint64 // scratch, rebuilt by every snapshot pass
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func (m *Memory) pageFor(addr uint64, create bool) *page {
	pn := addr >> pageShift
	slot := pn & 15
	if p := m.cacheP[slot]; p != nil && m.cachePN[slot] == pn {
		return p
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new(page)
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		m.pages[pn] = p
	}
	m.cachePN[slot], m.cacheP[slot] = pn, p
	return p
}

// Byte returns the byte at addr.
func (m *Memory) Byte(addr uint64) byte {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte sets the byte at addr.
func (m *Memory) SetByte(addr uint64, v byte) {
	m.pageFor(addr, true)[addr&pageMask] = v
}

// Read64 returns the little-endian 64-bit value at addr (no alignment
// requirement).
func (m *Memory) Read64(addr uint64) uint64 {
	// Fast path: within one page and aligned.
	if addr&7 == 0 && addr&pageMask <= pageSize-8 {
		p := m.pageFor(addr, false)
		if p == nil {
			return 0
		}
		o := addr & pageMask
		return uint64(p[o]) | uint64(p[o+1])<<8 | uint64(p[o+2])<<16 | uint64(p[o+3])<<24 |
			uint64(p[o+4])<<32 | uint64(p[o+5])<<40 | uint64(p[o+6])<<48 | uint64(p[o+7])<<56
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(m.Byte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write64 stores a little-endian 64-bit value at addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	if addr&7 == 0 && addr&pageMask <= pageSize-8 {
		p := m.pageFor(addr, true)
		o := addr & pageMask
		p[o] = byte(v)
		p[o+1] = byte(v >> 8)
		p[o+2] = byte(v >> 16)
		p[o+3] = byte(v >> 24)
		p[o+4] = byte(v >> 32)
		p[o+5] = byte(v >> 40)
		p[o+6] = byte(v >> 48)
		p[o+7] = byte(v >> 56)
		return
	}
	for i := 0; i < 8; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// SetBytes copies b into memory starting at addr.
func (m *Memory) SetBytes(addr uint64, b []byte) {
	for i, v := range b {
		m.SetByte(addr+uint64(i), v)
	}
}

// Pages returns the number of resident pages (for footprint accounting).
func (m *Memory) Pages() int { return len(m.pages) }

// overlayWord holds the pending (not yet released) store bytes of one
// aligned 8-byte span. mask bit i marks byte i pending; val keeps that
// byte at bits [8i, 8i+8); seq[i] identifies the youngest store that wrote
// it, so release can tell whether the byte is still live in the overlay.
//
// Word granularity is a hot-path decision: the dominant overlay traffic is
// aligned 8-byte STQ/LDQ from the functional engines, which costs one map
// operation per access here versus eight under a per-byte map, and batch
// campaigns sweep dozens of lane overlays per round, so the map footprint
// they drag through the cache shrinks by the same factor.
type overlayWord struct {
	val  uint64
	mask uint32
	seq  [8]uint64
}

// maskSpread expands pending-byte mask bit i to byte i = 0xff, for merging
// overlay bytes over the committed word without a per-byte loop.
var maskSpread = func() (t [256]uint64) { //rmtlint:allow sharedstate — immutable lookup table, built once before any run
	for m := 1; m < 256; m++ {
		for i := 0; i < 8; i++ {
			if m&(1<<i) != 0 {
				t[m] |= 0xff << (8 * i)
			}
		}
	}
	return
}()

// Overlay is a thread-private view of pending stores layered over a shared
// committed Memory. It models the architectural contents of the thread's
// store queue: loads from the owning thread see overlay bytes first.
type Overlay struct {
	mem   *Memory //rmtsnap:skip — wiring to shared memory, which snapshots itself
	words map[uint64]*overlayWord
	n     int // pending byte count (sum of the word masks' popcounts)

	// filter is a 64-bit presence summary over hashed word addresses: a
	// clear bit proves the word holds no pending byte, letting loads from
	// never-stored addresses skip the map probe entirely (the common case —
	// kernels read far more addresses than they write). Conservative: bits
	// are set on store and only cleared wholesale, on restore or when the
	// last pending byte is released, so a released word may leave a stale
	// bit, which costs one redundant map probe and nothing else.
	filter uint64 // derived presence summary, rebuilt from words on restore

	// Direct-mapped word cache (indexed by low word-address bits): kernels
	// bang on a handful of STQ/LDQ targets, so most accesses hit here and
	// skip the map probe. Pure cache over words — nothing to snapshot.
	cacheWA [8]uint64       // derived cache
	cacheW  [8]*overlayWord // derived cache

	// snapWAs holds the sorted word addresses of the last snapshot pass,
	// reused by the next.
	snapWAs []uint64 // scratch, rebuilt by every snapshot pass
	// spare holds word records a restore or a release took out of words,
	// for wordFor to reuse before it allocates.
	spare []*overlayWord // recycled storage, no state
}

func filterBit(wa uint64) uint64 { return 1 << ((wa * 0x9E3779B97F4A7C15) >> 58) }

// NewOverlay returns an empty overlay over mem.
func NewOverlay(mem *Memory) *Overlay {
	return &Overlay{mem: mem, words: make(map[uint64]*overlayWord)}
}

// recycleWords empties the overlay: every word record moves, zeroed, to
// the spare list for wordFor to reuse, and the word cache that points at
// them is dropped. It leaves no empty entries in the map, so a restored
// overlay holds only the words its stream lists.
func (o *Overlay) recycleWords() {
	for _, w := range o.words {
		*w = overlayWord{}
		o.spare = append(o.spare, w)
	}
	clear(o.words)
	o.n = 0
	o.filter = 0
	o.cacheW = [8]*overlayWord{}
}

func (o *Overlay) wordFor(wa uint64) *overlayWord {
	slot := wa & 7
	if w := o.cacheW[slot]; w != nil && o.cacheWA[slot] == wa {
		return w
	}
	w := o.words[wa]
	if w == nil {
		if n := len(o.spare); n > 0 {
			w = o.spare[n-1]
			o.spare = o.spare[:n-1]
		} else {
			w = new(overlayWord)
		}
		o.words[wa] = w
	}
	o.cacheWA[slot], o.cacheW[slot] = wa, w
	return w
}

// cachedWord is the read-side probe: cache hit, else map lookup (filling
// the cache on hit), else nil.
func (o *Overlay) cachedWord(wa uint64) *overlayWord {
	slot := wa & 7
	if w := o.cacheW[slot]; w != nil && o.cacheWA[slot] == wa {
		return w
	}
	w := o.words[wa]
	if w != nil {
		o.cacheWA[slot], o.cacheW[slot] = wa, w
	}
	return w
}

// Byte returns the thread-visible byte at addr.
func (o *Overlay) Byte(addr uint64) byte {
	if o.filter&filterBit(addr>>3) != 0 {
		if w := o.words[addr>>3]; w != nil && w.mask&(1<<(addr&7)) != 0 {
			return byte(w.val >> ((addr & 7) * 8))
		}
	}
	return o.mem.Byte(addr)
}

// Read64 returns the thread-visible 64-bit value at addr.
func (o *Overlay) Read64(addr uint64) uint64 {
	if o.filter&filterBit(addr>>3) == 0 && addr&7 == 0 {
		return o.mem.Read64(addr)
	}
	if addr&7 == 0 {
		w := o.cachedWord(addr >> 3)
		if w == nil || w.mask == 0 {
			return o.mem.Read64(addr)
		}
		if w.mask == 0xff {
			return w.val
		}
		m := maskSpread[w.mask]
		return o.mem.Read64(addr)&^m | w.val&m
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(o.Byte(addr+uint64(i))) << (8 * i)
	}
	return v
}

func (o *Overlay) storeByte(a uint64, v byte, seq uint64) {
	o.filter |= filterBit(a >> 3)
	w := o.wordFor(a >> 3)
	bit := uint32(1) << (a & 7)
	if w.mask&bit == 0 {
		w.mask |= bit
		o.n++
	}
	sh := (a & 7) * 8
	w.val = w.val&^(uint64(0xff)<<sh) | uint64(v)<<sh
	w.seq[a&7] = seq
}

// Store records a pending store of the low `size` bytes of val at addr,
// tagged with the dynamic sequence number seq (strictly increasing per
// thread).
func (o *Overlay) Store(addr uint64, val uint64, size int, seq uint64) {
	if size == 8 && addr&7 == 0 {
		o.filter |= filterBit(addr >> 3)
		w := o.wordFor(addr >> 3)
		o.n += 8 - mathbits.OnesCount8(uint8(w.mask))
		w.val = val
		w.mask = 0xff
		for i := range w.seq {
			w.seq[i] = seq
		}
		return
	}
	for i := 0; i < size; i++ {
		o.storeByte(addr+uint64(i), byte(val>>(8*i)), seq)
	}
}

// Release commits the store identified by (addr, val, size, seq) to the
// shared memory and drops overlay bytes that still belong to it. If commit
// is false the bytes are dropped without being written (used for the
// trailing copy, whose stores never leave the sphere). A word left with
// no pending byte leaves the map for the spare list, so the overlay holds
// only words with pending bytes and a snapshot sorts no others.
func (o *Overlay) Release(addr uint64, val uint64, size int, seq uint64, commit bool) {
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if commit {
			o.mem.SetByte(a, byte(val>>(8*i)))
		}
		wa := a >> 3
		if w := o.words[wa]; w != nil {
			bit := uint32(1) << (a & 7)
			if w.mask&bit != 0 && w.seq[a&7] == seq {
				w.mask &^= bit
				o.n--
				if w.mask == 0 {
					o.dropWord(wa, w)
				}
			}
		}
	}
	if o.n == 0 {
		o.filter = 0
	}
}

// dropWord moves an emptied word record from the map to the spare list,
// and out of the word cache, which must not hand a recycled record back
// for its old address.
func (o *Overlay) dropWord(wa uint64, w *overlayWord) {
	delete(o.words, wa)
	*w = overlayWord{}
	o.spare = append(o.spare, w)
	if slot := wa & 7; o.cacheW[slot] == w {
		o.cacheW[slot] = nil
	}
}

// PendingBytes returns the number of bytes currently held in the overlay.
func (o *Overlay) PendingBytes() int { return o.n }

// Backing returns the committed memory under the overlay.
func (o *Overlay) Backing() *Memory { return o.mem }
