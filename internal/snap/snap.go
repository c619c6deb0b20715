// Package snap is the deterministic binary serialization substrate under
// the machine-state snapshot layer: a length-checked little-endian
// writer/reader pair over plain byte slices, standard library only.
//
// The encoding is deliberately primitive — fixed-width 64-bit words,
// length-prefixed byte strings and sparse (index, word) tables behind an
// 8-byte magic header — because the snapshot contract is byte-identity: the
// same machine state must always encode to the same bytes. There is no
// reflection, no map iteration, and no varint ambiguity; every composite
// structure above this layer writes its fields in a fixed order and
// serializes map-backed state in sorted key order. Sparse tables have one
// canonical form, and the reader rejects any other, so restoring a stream
// and re-encoding it reproduces the stream.
//
// The Reader is total: malformed input can never panic it. Errors are
// sticky — after the first failure every subsequent read returns the zero
// value — so decoders can be written as straight-line field reads with one
// error check at the end.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// magic identifies a snapshot stream and pins the framing version.
const magic = "RMTSNAP1"

// Writer appends fixed-width fields to a growing buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer primed with the stream header.
func NewWriter() *Writer {
	return NewWriterSize(4096)
}

// NewWriterSize returns a writer primed with the stream header and buffer
// capacity for a stream whose encoded size is roughly known in advance. A
// machine snapshot re-encodes to within a few kilobytes of its previous
// size, and preallocating skips the doubling-growth copies of a buffer that
// otherwise grows from 4 KB to the hundreds of kilobytes a mid-run machine
// encodes to.
func NewWriterSize(capacity int) *Writer {
	if capacity < 4096 {
		capacity = 4096
	}
	return &Writer{buf: append(make([]byte, 0, capacity), magic...)}
}

// U64 writes one little-endian 64-bit word.
func (w *Writer) U64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Int writes a signed integer as its two's-complement 64-bit image.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// I64 writes a signed 64-bit integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool writes a boolean as one word (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// F64 writes a float64 by its IEEE-754 bit image.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Finish returns the encoded stream. The writer may not be reused after.
func (w *Writer) Finish() []byte { return w.buf }

// Word is the element type of a sparse table.
type Word interface{ ~uint64 | ~int32 }

// WriteSparse writes a fixed-length table whose entries mostly hold the
// default value def: the table length, the count of entries that differ
// from def, then each such entry's index and word in ascending index order.
// An entry's word is v-def, so the default is the zero word and is never
// written (a table defaulting to -1 stores v+1).
func WriteSparse[T Word](w *Writer, table []T, def T) {
	w.U64(uint64(len(table)))
	at := len(w.buf)
	w.U64(0) // the count, patched once the entries are written
	var k uint64
	for i, v := range table {
		if v != def {
			w.U64(uint64(i))
			w.U64(uint64(v - def))
			k++
		}
	}
	binary.LittleEndian.PutUint64(w.buf[at:], k)
}

// ErrMalformed reports a structurally invalid snapshot stream.
var ErrMalformed = errors.New("snap: malformed snapshot")

// Reader consumes a stream produced by Writer. All methods are safe on
// malformed input: the first structural violation latches an error and
// every later read returns zero values.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader validates the stream header and returns a reader positioned at
// the first field.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad header", ErrMalformed)
	}
	return &Reader{data: data, off: len(magic)}, nil
}

// fail latches the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// U64 reads one little-endian 64-bit word.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	b := r.data[r.off:]
	r.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Int reads a signed integer written by Writer.Int.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// I64 reads a signed 64-bit integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads a boolean, rejecting encodings other than 0 and 1.
func (r *Reader) Bool() bool {
	switch r.U64() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool at offset %d", r.off-8)
		return false
	}
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a length-prefixed byte string. The returned slice aliases the
// reader's backing array; callers that retain it must copy.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("byte string of %d exceeds remaining %d", n, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Count reads an element count and bounds it against the bytes remaining in
// the stream, assuming each element occupies at least minBytes — the guard
// that keeps a corrupted count from driving a huge allocation.
func (r *Reader) Count(minBytes int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64((len(r.data)-r.off)/minBytes) {
		r.fail("count %d exceeds remaining stream", n)
		return 0
	}
	return int(n)
}

// ReadSparse reads a table written by WriteSparse into table, which must
// have the stream's length, and sets every entry the stream does not list
// to def. Only the canonical form is accepted — strictly ascending indices
// below the table length, no explicit default, and words that are the image
// of a T — so an accepted stream re-encodes to exactly its own bytes.
func ReadSparse[T Word](r *Reader, table []T, def T) {
	if n := r.U64(); r.err == nil && n != uint64(len(table)) {
		r.fail("sparse table of %d entries, want %d", n, len(table))
	}
	k := r.Count(16)
	if r.err != nil {
		return
	}
	if def == 0 {
		clear(table)
	} else {
		for i := range table {
			table[i] = def
		}
	}
	next := uint64(0) // lowest index the next entry may carry
	for ; k > 0; k-- {
		i, word := r.U64(), r.U64()
		switch {
		case r.err != nil:
			return
		case i < next || i >= uint64(len(table)):
			r.fail("sparse index %d out of order or range at offset %d", i, r.off-16)
			return
		case word == 0:
			r.fail("sparse entry %d holds the default at offset %d", i, r.off-16)
			return
		case uint64(T(word)) != word:
			r.fail("sparse entry %d word %#x out of range at offset %d", i, word, r.off-16)
			return
		}
		table[i] = T(word) + def
		next = i + 1
	}
}

// Failf lets a decoder latch a domain error of its own — a geometry
// mismatch between the stream and the machine being restored, say — with
// the same sticky semantics as structural failures.
func (r *Reader) Failf(format string, args ...any) {
	r.fail(format, args...)
}

// Err returns the latched error, nil if the stream has decoded cleanly so
// far.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or an error if decoding stopped short of
// the end of the stream (trailing garbage).
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.data)-r.off)
	}
	return nil
}
