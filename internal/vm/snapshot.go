package vm

import (
	"slices"

	"repro/internal/snap"
)

// Snapshot support for the functional substrate. Each Snap method visits
// the receiver's mutable state through a snap.Stream in a fixed field order
// (map-backed state in sorted key order, so identical machine state always
// encodes to identical bytes); the same method restores it. Wiring — the
// Overlay→Memory link, a Thread's Corrupt/IORead hooks, its Prog — is not
// serialized: restore targets a freshly built machine that already has
// the static structure in place.

// Snap visits the committed memory image: resident pages in ascending
// page-number order. Decoding replaces the image with the stream's pages in
// place: a page the memory already holds takes the stream's bytes, a page
// it lacks is allocated, and a page the stream does not list is dropped.
// Only strictly ascending page numbers are accepted, the one order
// encoding produces.
func (m *Memory) Snap(s *snap.Stream) {
	// Both directions start from the resident pages in order: encoding
	// lists them, and decoding walks them beside the stream's to find the
	// ones to drop.
	held := m.snapPNs[:0]
	for pn := range m.pages {
		held = append(held, pn)
	}
	slices.Sort(held)
	m.snapPNs = held
	n := len(held)
	s.Count(&n, 16)
	if s.Decoding() {
		if m.pages == nil {
			m.pages = make(map[uint64]*page, n)
		}
		m.cacheP = [16]*page{} // dropped pages may sit in the cache
	}
	j := 0 // decoding: the first held page not yet kept or dropped
	var prev uint64
	for i := 0; i < n; i++ {
		var pn uint64
		if !s.Decoding() {
			pn = held[i]
		}
		s.U64(&pn)
		if s.Decoding() {
			if s.Err() != nil {
				return
			}
			if i > 0 && pn <= prev {
				s.Failf("memory page %d out of order", pn)
				return
			}
			prev = pn
			for ; j < len(held) && held[j] <= pn; j++ {
				if held[j] < pn {
					delete(m.pages, held[j])
				}
			}
			if m.pages[pn] == nil {
				m.pages[pn] = new(page)
			}
		}
		s.Bytes(m.pages[pn][:])
	}
	if s.Decoding() {
		for ; j < len(held); j++ {
			delete(m.pages, held[j])
		}
	}
}

// Snap visits the overlay's pending store bytes in ascending address
// order, each as its address, value and sequence number. Decoding replaces
// the pending byte set, leaving the backing Memory link untouched; that
// Memory is shared between threads and serialized once by the machine
// layer, not here. The restored overlay holds only the stream's words, as
// a fresh one would, so the next encoding sorts no more words than a run
// since the restore has stored to, and it rebuilds them from the records
// it held before it allocates.
func (o *Overlay) Snap(s *snap.Stream) {
	n := o.n
	s.Count(&n, 24)
	if s.Decoding() {
		o.recycleWords()
		for i := 0; i < n; i++ {
			var a, val, seq uint64
			s.U64(&a)
			s.U64(&val)
			s.U64(&seq)
			o.storeByte(a, byte(val), seq)
		}
		return
	}
	was := o.snapWAs[:0]
	for wa := range o.words {
		was = append(was, wa)
	}
	slices.Sort(was)
	o.snapWAs = was
	for _, wa := range was {
		ow := o.words[wa]
		for i := uint64(0); i < 8; i++ {
			if ow.mask&(1<<i) != 0 {
				a, val := wa<<3|i, uint64(byte(ow.val>>(8*i)))
				s.U64(&a)
				s.U64(&val)
				s.U64(&ow.seq[i])
			}
		}
	}
}

// Snap visits the thread's architectural state and its overlay's pending
// bytes. Prog, Corrupt, and IORead are wiring and stay with the rebuilt
// machine.
func (t *Thread) Snap(s *snap.Stream) {
	s.U64(&t.PC)
	for i := range t.IntReg {
		s.U64(&t.IntReg[i])
	}
	for i := range t.FPReg {
		s.U64(&t.FPReg[i])
	}
	s.U64(&t.Seq)
	s.Bool(&t.Halted)
	s.Bool(&t.Tolerant)
	s.Bool(&t.Trapped)
	t.Mem.Snap(s)
}

// Snap visits one committed-instruction record, as the timing model keeps
// it for each instruction in flight.
func (o *Outcome) Snap(s *snap.Stream) {
	s.U64(&o.Seq)
	s.U64(&o.PC)
	snap.Word(s, &o.Instr.Op)
	snap.Word(s, &o.Instr.Rd)
	snap.Word(s, &o.Instr.Ra)
	snap.Word(s, &o.Instr.Rb)
	s.I64(&o.Instr.Imm)
	s.U64(&o.NextPC)
	s.Bool(&o.Taken)
	s.U64(&o.Addr)
	s.Int(&o.Size)
	s.U64(&o.Value)
	s.U64(&o.DestVal)
	s.Bool(&o.Halted)
	s.Bool(&o.Trap)
}

// Snap visits the device's counter state and write log.
func (d *PseudoDevice) Snap(s *snap.Stream) {
	s.U64(&d.state)
	s.U64(&d.Reads)
	snap.Slice(s, &d.WriteLog, 16)
	for i := range d.WriteLog {
		s.U64(&d.WriteLog[i].Addr)
		s.U64(&d.WriteLog[i].Val)
	}
}
