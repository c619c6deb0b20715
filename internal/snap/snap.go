// Package snap is the deterministic binary serialization substrate under
// the machine-state snapshot layer: a length-checked little-endian codec
// over plain byte slices, standard library only.
//
// The encoding is deliberately primitive — fixed-width 64-bit words,
// length-prefixed byte strings and sparse (index, word) tables behind an
// 8-byte magic header — because the snapshot contract is byte-identity: the
// same machine state must always encode to the same bytes. There is no
// reflection, no map iteration, and no varint ambiguity; every composite
// structure above this layer visits its fields in a fixed order and
// serializes map-backed state in sorted key order. Sparse tables have one
// canonical form, and the decoder rejects any other, so restoring a stream
// and re-encoding it reproduces the stream.
//
// A structure states its format once, as one function over a *Stream that
// visits every field by pointer. The same function encodes (the Stream
// reads each field and appends it) and decodes (the Stream overwrites each
// field from the input), so the two directions cannot drift apart. The few
// steps that genuinely differ by direction sit under Decoding().
//
// Decoding is total: malformed input can never panic the Stream. Errors
// are sticky — after the first failure every later field decodes as the
// zero value — so a visit function runs straight through with one error
// check at the end.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// magic identifies a snapshot stream and pins the framing version.
const magic = "RMTSNAP1"

// ErrMalformed reports a structurally invalid snapshot stream.
var ErrMalformed = errors.New("snap: malformed snapshot")

// writer appends fixed-width fields to a growing buffer.
type writer struct {
	buf []byte
}

// reader consumes a stream produced by writer. Decoding is safe on
// malformed input: the first structural violation latches an error and
// every later read returns zero values.
type reader struct {
	data []byte
	off  int
	err  error
}

// fail latches the first error. It also cuts the input at the current
// offset, so every later read comes up short and returns zero.
func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
		r.data = r.data[:r.off]
	}
}

// Stream is one pass over a snapshot stream: it decodes through r when r
// is set, and otherwise encodes into w.
type Stream struct {
	w writer
	r *reader
}

// NewEncoder returns an encoding Stream that appends the stream, header
// first, to buf. The stream writes into buf's storage while it fits and
// grows a new array only past its capacity, so a caller that keeps a
// buffer of the right size and passes buf[:0] encodes without allocating.
// Finish returns the extended buffer; buf's own storage may be overwritten.
func NewEncoder(buf []byte) *Stream {
	return &Stream{w: writer{buf: append(buf, magic...)}}
}

// NewDecoder validates the stream header and returns a decoding Stream
// positioned at the first field.
func NewDecoder(data []byte) (*Stream, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad header", ErrMalformed)
	}
	return &Stream{r: &reader{data: data, off: len(magic)}}, nil
}

// Decoding reports whether the Stream overwrites the fields it visits
// (restore) rather than recording them (snapshot).
func (s *Stream) Decoding() bool { return s.r != nil }

// U64, Int, I64 and Word are small enough to inline: encoding a field
// appends in place, and decoding one costs a single call to read.

// U64 visits one 64-bit word, little-endian.
func (s *Stream) U64(v *uint64) {
	if s.r == nil {
		s.w.buf = binary.LittleEndian.AppendUint64(s.w.buf, *v)
	} else {
		*v = s.read()
	}
}

// Int visits a signed integer as its two's-complement 64-bit image.
func (s *Stream) Int(v *int) {
	if s.r == nil {
		s.w.buf = binary.LittleEndian.AppendUint64(s.w.buf, uint64(*v))
	} else {
		*v = int(s.read())
	}
}

// I64 visits a signed 64-bit integer.
func (s *Stream) I64(v *int64) {
	if s.r == nil {
		s.w.buf = binary.LittleEndian.AppendUint64(s.w.buf, uint64(*v))
	} else {
		*v = int64(s.read())
	}
}

// F64 visits a float64 by its IEEE-754 bit image.
func (s *Stream) F64(v *float64) {
	if s.r == nil {
		s.w.buf = binary.LittleEndian.AppendUint64(s.w.buf, math.Float64bits(*v))
	} else {
		*v = math.Float64frombits(s.read())
	}
}

// Word visits a value of a named word type — a statistics counter, an
// opcode, a register number, a functional-unit index — as one 64-bit
// word. Decoding converts the word to T, as the type conversion would.
func Word[T ~uint8 | ~uint64](s *Stream, v *T) {
	if s.r == nil {
		s.w.buf = binary.LittleEndian.AppendUint64(s.w.buf, uint64(*v))
	} else {
		*v = T(s.read())
	}
}

// Bool visits a boolean as one word, 0 or 1; decoding rejects any other.
// It is too large to inline, so encoding appends the word's bytes
// directly rather than converting the bool first.
func (s *Stream) Bool(v *bool) {
	switch {
	case s.r != nil:
		u := s.read()
		*v = u == 1
		if u > 1 {
			s.r.fail("bad bool at offset %d", s.r.off-8)
		}
	case *v:
		s.w.buf = append(s.w.buf, 1, 0, 0, 0, 0, 0, 0, 0)
	default:
		s.w.buf = append(s.w.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	}
}

// read returns a decoding stream's next word, or zero once an error is
// latched.
func (s *Stream) read() uint64 {
	r := s.r
	if len(r.data)-r.off < 8 {
		if r.err == nil {
			r.fail("truncated at offset %d", r.off)
		}
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// count reads an element count and bounds it against the bytes remaining,
// assuming each element occupies at least minBytes.
func (s *Stream) count(minBytes int) int {
	n := s.read()
	r := s.r
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.data)-r.off)/max(minBytes, 1)) {
		r.fail("count %d exceeds remaining stream", n)
		return 0
	}
	return int(n)
}

// Len visits a fixed geometry: a table size or element count that the
// live structure already has from its configuration. Encoding writes n;
// decoding fails with the formatted message unless the stream carries n.
// Len reports whether the stream is still sound.
func (s *Stream) Len(n int, format string, args ...any) bool {
	v := uint64(n)
	s.U64(&v)
	if s.r == nil {
		return true
	}
	if s.r.err == nil && v != uint64(n) {
		s.r.fail(format, args...)
	}
	return s.r.err == nil
}

// Count visits a variable length. Decoding bounds it against the bytes
// left in the stream, taking each element to occupy at least minBytes —
// the guard that keeps a corrupted count from driving a huge allocation.
func (s *Stream) Count(n *int, minBytes int) {
	if s.r != nil {
		*n = s.count(minBytes)
		return
	}
	s.Int(n)
}

// Slice visits the length of a variable-length slice through Count.
// Decoding resizes *p to the stream's length, and the caller then visits
// every element. The resize reuses *p's array when it has the capacity,
// zeroing what lies past the new length, and allocates a fresh one only
// when it has not; a nil slice stays nil when the stream's is empty.
func Slice[T any](s *Stream, p *[]T, minBytes int) {
	n := len(*p)
	s.Count(&n, minBytes)
	if s.r != nil {
		if n <= cap(*p) {
			*p = (*p)[:n]
			clear((*p)[n:cap(*p)])
		} else {
			*p = make([]T, n)
		}
	}
}

// Bytes visits a fixed-size byte table as a length-prefixed byte string.
// Decoding fails unless the stream's string is exactly len(b) bytes long,
// and copies it into b.
func (s *Stream) Bytes(b []byte) {
	n := uint64(len(b))
	s.U64(&n)
	if s.r == nil {
		s.w.buf = append(s.w.buf, b...)
		return
	}
	r := s.r
	switch {
	case r.err != nil:
	case n > uint64(len(r.data)-r.off):
		r.fail("byte string of %d exceeds remaining %d", n, len(r.data)-r.off)
	case n != uint64(len(b)):
		r.fail("byte table of %d bytes, want %d", n, len(b))
	default:
		r.off += copy(b, r.data[r.off:])
	}
}

// Entry is the element type of a sparse table.
type Entry interface{ ~uint64 | ~int32 }

// Sparse visits a fixed-length table whose entries mostly hold the default
// value def: the table length, the count of entries that differ from def,
// then each such entry's index and word in ascending index order. An
// entry's word is v-def, so the default is the zero word and is never
// written (a table defaulting to -1 stores v+1).
//
// Decoding requires the live table's length and sets every entry the
// stream does not list to def. Only the canonical form is accepted —
// strictly ascending indices below the table length, no explicit default,
// and words that are the image of a T — so an accepted stream re-encodes to
// exactly its own bytes.
func Sparse[T Entry](s *Stream, table []T, def T) {
	if s.r == nil {
		w := &s.w
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(len(table)))
		at := len(w.buf)
		w.buf = binary.LittleEndian.AppendUint64(w.buf, 0) // the count, patched once the entries are written
		var k uint64
		for i, v := range table {
			if v != def {
				w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(i))
				w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v-def))
				k++
			}
		}
		binary.LittleEndian.PutUint64(w.buf[at:], k)
		return
	}
	r := s.r
	n := uint64(len(table))
	s.U64(&n)
	if r.err == nil && n != uint64(len(table)) {
		r.fail("sparse table of %d entries, want %d", n, len(table))
	}
	k := s.count(16)
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
		var i, word uint64
		s.U64(&i)
		s.U64(&word)
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

// Failf latches a domain error of the decoder's own — a restored value
// that contradicts the live structure, say — with the same sticky
// semantics as structural failures. Encoding never fails, so on an
// encoding Stream it does nothing.
func (s *Stream) Failf(format string, args ...any) {
	if s.r != nil {
		s.r.fail(format, args...)
	}
}

// Err returns the latched decoding error, nil if the stream has decoded
// cleanly so far (and always nil when encoding).
func (s *Stream) Err() error {
	if s.r == nil {
		return nil
	}
	return s.r.err
}

// Done finishes a decoding pass: it returns the latched error, or an error
// if decoding stopped short of the end of the stream (trailing garbage).
func (s *Stream) Done() error {
	if err := s.Err(); err != nil || s.r == nil {
		return err
	}
	if s.r.off != len(s.r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(s.r.data)-s.r.off)
	}
	return nil
}

// Finish returns an encoding pass's buffer: the buffer NewEncoder was
// given, extended by the stream. The Stream may not be reused after.
func (s *Stream) Finish() []byte { return s.w.buf }
