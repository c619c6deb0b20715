package isa

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Binary program images. The container is deliberately minimal: a magic
// header, the entry points, the encoded code words, and the initial data
// blobs. rmtasm writes images with -o and reloads them with -bin; the
// static verifier (internal/analysis, rmtasm -check) runs on reloaded
// images exactly as on built-in kernels.
//
//	offset  size  field
//	0       8     magic "RMTBIN1\x00"
//	8       8     entry PC
//	16      8     interrupt handler PC (0 = none)
//	24      8     code length in words
//	32      8     data blob count
//	40      ...   code words, 8 B little-endian each (see Encode)
//	...           per blob: u64 addr, u64 byte length, then the bytes
//
//rmtlint:allow sharedstate — read-only file magic, written by no one
var imageMagic = [8]byte{'R', 'M', 'T', 'B', 'I', 'N', '1', 0}

// imageLimit caps code words and data bytes a reader will accept, so a
// corrupt header cannot ask for gigabytes.
const imageLimit = 1 << 24

// WriteImage serialises the program, data blobs in address order so the
// bytes are deterministic.
func WriteImage(w io.Writer, p *Program) error {
	var hdr [40]byte
	copy(hdr[:8], imageMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], p.Entry)
	binary.LittleEndian.PutUint64(hdr[16:], p.InterruptHandler)
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(p.Code)))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(p.Data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var word [8]byte
	for pc, ins := range p.Code {
		enc, err := Encode(ins)
		if err != nil {
			return fmt.Errorf("isa: %s pc=%d: %w", p.Name, pc, err)
		}
		binary.LittleEndian.PutUint64(word[:], uint64(enc))
		if _, err := w.Write(word[:]); err != nil {
			return err
		}
	}
	addrs := make([]uint64, 0, len(p.Data))
	for addr := range p.Data {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		blob := p.Data[addr]
		var bh [16]byte
		binary.LittleEndian.PutUint64(bh[:], addr)
		binary.LittleEndian.PutUint64(bh[8:], uint64(len(blob)))
		if _, err := w.Write(bh[:]); err != nil {
			return err
		}
		if _, err := w.Write(blob); err != nil {
			return err
		}
	}
	return nil
}

// ReadImage deserialises a program image. Words that do not decode and
// images that fail Program.Validate are errors — images are verified on
// load, so a truncated or bit-flipped file cannot smuggle undefined
// instructions or an out-of-image entry, handler or branch target into the
// simulator.
func ReadImage(r io.Reader, name string) (*Program, error) {
	var hdr [40]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("isa: %s: short image header: %w", name, err)
	}
	if [8]byte(hdr[:8]) != imageMagic {
		return nil, fmt.Errorf("isa: %s: not a program image (bad magic)", name)
	}
	p := &Program{
		Name:             name,
		Entry:            binary.LittleEndian.Uint64(hdr[8:]),
		InterruptHandler: binary.LittleEndian.Uint64(hdr[16:]),
	}
	codeLen := binary.LittleEndian.Uint64(hdr[24:])
	blobs := binary.LittleEndian.Uint64(hdr[32:])
	if codeLen > imageLimit || blobs > imageLimit {
		return nil, fmt.Errorf("isa: %s: implausible image header (code %d words, %d blobs)", name, codeLen, blobs)
	}
	p.Code = make([]Instr, codeLen)
	var word [8]byte
	for pc := range p.Code {
		if _, err := io.ReadFull(r, word[:]); err != nil {
			return nil, fmt.Errorf("isa: %s: short code at pc=%d: %w", name, pc, err)
		}
		ins, err := Decode(Word(binary.LittleEndian.Uint64(word[:])))
		if err != nil {
			return nil, fmt.Errorf("isa: %s pc=%d: %w", name, pc, err)
		}
		p.Code[pc] = ins
	}
	if blobs > 0 {
		p.Data = make(map[uint64][]byte, blobs)
	}
	for i := uint64(0); i < blobs; i++ {
		var bh [16]byte
		if _, err := io.ReadFull(r, bh[:]); err != nil {
			return nil, fmt.Errorf("isa: %s: short data blob header: %w", name, err)
		}
		addr := binary.LittleEndian.Uint64(bh[:])
		size := binary.LittleEndian.Uint64(bh[8:])
		if size > imageLimit {
			return nil, fmt.Errorf("isa: %s: implausible data blob (%d bytes)", name, size)
		}
		blob := make([]byte, size)
		if _, err := io.ReadFull(r, blob); err != nil {
			return nil, fmt.Errorf("isa: %s: short data blob at %#x: %w", name, addr, err)
		}
		p.Data[addr] = blob
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
