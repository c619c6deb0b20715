package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// words encodes raw 64-bit words behind the header: hand-built streams,
// well formed or not.
func words(ws ...uint64) []byte {
	s := NewEncoder(nil)
	for i := range ws {
		s.U64(&ws[i])
	}
	return s.Finish()
}

type (
	counter uint64
	opcode  uint8
)

// record exercises every primitive and helper a structure's visit
// function uses.
type record struct {
	u      uint64
	i      int
	i64    int64
	b      bool
	f      float64
	c      counter
	op     opcode
	table  []byte
	sparse []uint64
	ids    []int32
	list   []uint64
}

// newRecord returns a record with the given byte-table geometry and the
// fixed sparse-table lengths.
func newRecord(tableLen int) *record {
	return &record{table: make([]byte, tableLen), sparse: make([]uint64, 16), ids: make([]int32, 4)}
}

func (r *record) visit(s *Stream) {
	s.U64(&r.u)
	s.Int(&r.i)
	s.I64(&r.i64)
	s.Bool(&r.b)
	s.F64(&r.f)
	Word(s, &r.c)
	Word(s, &r.op)
	if !s.Len(len(r.table), "table size mismatch") {
		return
	}
	s.Bytes(r.table)
	Sparse(s, r.sparse, 0)
	Sparse(s, r.ids, -1)
	Slice(s, &r.list, 8)
	for i := range r.list {
		s.U64(&r.list[i])
	}
}

func encodeRecord(r *record) []byte {
	s := NewEncoder(nil)
	r.visit(s)
	return s.Finish()
}

func decodeRecord(data []byte, r *record) error {
	s, err := NewDecoder(data)
	if err != nil {
		return err
	}
	r.visit(s)
	return s.Done()
}

func sampleRecord() *record {
	r := newRecord(5)
	r.u, r.i, r.i64, r.b, r.f = math.MaxUint64, -7, math.MinInt64, true, -1.5
	r.c, r.op = 1<<40, 0xAB
	copy(r.table, "bytes")
	r.sparse[3], r.sparse[15] = 9, math.MaxUint64
	r.ids[1] = 2
	r.list = []uint64{4, 5, 6}
	return r
}

// TestStream drives one visit function as encoder and decoder: every
// primitive round-trips through exactly the encoded bytes, and each kind
// of bad stream is refused with ErrMalformed, its first error latched.
func TestStream(t *testing.T) {
	src := sampleRecord()
	data := encodeRecord(src)
	// The bool is the fourth word after the header.
	badBool := bytes.Clone(data)
	binary.LittleEndian.PutUint64(badBool[len(magic)+3*8:], 2)

	cases := []struct {
		name string
		data []byte
		dst  *record
		want string // "" decodes cleanly
	}{
		{"round trip", data, newRecord(5), ""},
		{"round trip into a dirty record", data, sampleRecord(), ""},
		{"geometry mismatch", data, newRecord(6), "table size mismatch"},
		{"byte string longer than the table", words(0, 0, 0, 0, 0, 0, 0, 2, 3, 0), newRecord(2), "byte table of 3 bytes, want 2"},
		{"bad bool latches", badBool, newRecord(5), "bad bool"},
		{"trailing bytes", append(bytes.Clone(data), make([]byte, 8)...), newRecord(5), "8 trailing bytes"},
		{"bad header", data[1:], newRecord(5), "bad header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeRecord(tc.data, tc.dst)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tc.dst, src) {
					t.Fatalf("decoded %+v, want %+v", tc.dst, src)
				}
				if again := encodeRecord(tc.dst); !bytes.Equal(again, tc.data) {
					t.Fatal("re-encoding differs from the decoded stream")
				}
				return
			}
			if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want ErrMalformed mentioning %q", err, tc.want)
			}
		})
	}

	// After the bad bool every later field decodes as its zero value, and
	// the error stays the first one although the table length then
	// mismatches too.
	dst := sampleRecord()
	s, err := NewDecoder(badBool)
	if err != nil {
		t.Fatal(err)
	}
	dst.visit(s)
	if dst.f != 0 || dst.c != 0 || dst.op != 0 || !strings.Contains(s.Err().Error(), "bad bool") {
		t.Fatalf("after the bad bool: f=%v c=%v op=%v err=%v", dst.f, dst.c, dst.op, s.Err())
	}

	// Every truncation fails without panicking.
	for n := 0; n < len(data); n++ {
		if err := decodeRecord(data[:n], newRecord(5)); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
}

// TestSparseRoundTrip: sparse tables encode only their non-default
// entries, and decoding resets every entry the stream omits.
func TestSparseRoundTrip(t *testing.T) {
	wordTable := make([]uint64, 64)
	wordTable[0], wordTable[17], wordTable[63] = 5, math.MaxUint64, 1
	ids := []int32{-1, 0, -1, 7, math.MaxInt32, math.MinInt32, -1, -2}

	s := NewEncoder(nil)
	Sparse(s, wordTable, 0)
	Sparse(s, ids, -1)
	Sparse(s, make([]uint64, 8), 0)
	data := s.Finish()
	// Header, then per table its length and count plus two words for each
	// entry off the default: 3 + 5 + 0 entries.
	if want := len(magic) + 8*(2*3+2*(3+5)); len(data) != want {
		t.Fatalf("encoded %d bytes, want %d", len(data), want)
	}

	d, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty destinations: every entry the stream omits must be reset.
	gotWords := make([]uint64, 64)
	for i := range gotWords {
		gotWords[i] = 99
	}
	gotIDs := []int32{3, 3, 3, 3, 3, 3, 3, 3}
	empty := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	Sparse(d, gotWords, 0)
	Sparse(d, gotIDs, -1)
	Sparse(d, empty, 0)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotWords, wordTable) || !reflect.DeepEqual(gotIDs, ids) || !reflect.DeepEqual(empty, make([]uint64, 8)) {
		t.Fatalf("round trip differs:\nwords %v\nids %v\nempty %v", gotWords, gotIDs, empty)
	}
}

// TestSparseRejectsNonCanonical: every stream that is not the one encoding
// Sparse would produce latches ErrMalformed.
func TestSparseRejectsNonCanonical(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		i32  bool // decode into an int32 table defaulting to -1
	}{
		{"length mismatch", words(7, 0), false},
		{"descending indices", words(8, 2, 5, 1, 3, 1), false},
		{"repeated index", words(8, 2, 3, 1, 3, 2), false},
		{"index at length", words(8, 1, 8, 1), false},
		{"index beyond length", words(8, 1, math.MaxUint64, 1), false},
		{"explicit default", words(8, 1, 2, 0), false},
		{"explicit default int32", words(8, 1, 2, 0), true},
		{"word beyond int32", words(8, 1, 2, 1<<32), true},
		{"int32 word not sign-extended", words(8, 1, 2, 0xFFFFFFFF), true},
		{"count beyond stream", words(8, 2, 1, 1), false},
		{"huge count", words(8, math.MaxUint64), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewDecoder(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if tc.i32 {
				Sparse(s, make([]int32, 8), -1)
			} else {
				Sparse(s, make([]uint64, 8), 0)
			}
			if err := s.Err(); !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
		})
	}
}

// TestSparseTruncated: every truncation of a valid stream latches an error
// without panicking, and later fields keep decoding as zero values.
func TestSparseTruncated(t *testing.T) {
	table := []uint64{0, 4, 0, 9, 0, 0, 1, 0}
	s := NewEncoder(nil)
	Sparse(s, table, 0)
	trailer := uint64(42)
	s.U64(&trailer)
	data := s.Finish()
	for n := len(magic); n < len(data); n++ {
		d, err := NewDecoder(data[:n])
		if err != nil {
			t.Fatal(err)
		}
		Sparse(d, make([]uint64, len(table)), 0)
		v := uint64(7)
		d.U64(&v)
		if d.Err() == nil || v != 0 {
			t.Fatalf("truncation to %d bytes: err %v, trailing word %d", n, d.Err(), v)
		}
	}
}

// TestEncoderAppendsIntoBuffer: an encoder appends to the buffer it is
// given, writing into that buffer's storage while the stream fits, so a
// recycled buffer encodes without allocating.
func TestEncoderAppendsIntoBuffer(t *testing.T) {
	data := encodeRecord(sampleRecord())
	buf := make([]byte, 0, len(data))
	s := NewEncoder(buf)
	sampleRecord().visit(s)
	out := s.Finish()
	if !bytes.Equal(out, data) || &out[0] != &buf[:1][0] {
		t.Fatal("encoding into a large enough buffer did not reuse its storage")
	}
	s = NewEncoder([]byte("prefix"))
	sampleRecord().visit(s)
	if got := s.Finish(); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], data) {
		t.Fatal("encoding did not append after the buffer's contents")
	}
	r := sampleRecord()
	if n := testing.AllocsPerRun(10, func() {
		s := NewEncoder(buf[:0])
		r.visit(s)
		buf = s.Finish()
	}); n != 0 {
		t.Fatalf("encoding into a recycled buffer allocates %.0f objects", n)
	}
}

// TestSliceReusesArray: decoding a variable-length slice reuses the
// target's array when it is large enough, clearing the elements past the
// stream's length, and allocates only when it is not.
func TestSliceReusesArray(t *testing.T) {
	data := encodeRecord(sampleRecord()) // list = [4 5 6]
	dst := sampleRecord()
	dst.list = []uint64{9, 9, 9, 9, 9}
	array := &dst.list[0]
	if err := decodeRecord(data, dst); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.list, []uint64{4, 5, 6}) || &dst.list[0] != array {
		t.Fatalf("list %v: decoded into a fresh array or wrong values", dst.list)
	}
	if tail := dst.list[:5][3:]; tail[0] != 0 || tail[1] != 0 {
		t.Fatalf("elements past the stream's length kept %v", tail)
	}
	dst.list = make([]uint64, 0, 2)
	if err := decodeRecord(data, dst); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.list, []uint64{4, 5, 6}) {
		t.Fatalf("list %v after decoding into a short array", dst.list)
	}
	empty := sampleRecord()
	empty.list = nil
	dst.list = nil
	if err := decodeRecord(encodeRecord(empty), dst); err != nil || dst.list != nil {
		t.Fatalf("empty list decoded to %#v (err %v), want nil", dst.list, err)
	}
}
