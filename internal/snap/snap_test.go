package snap

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// sparseStream encodes a hand-built sparse table: the length, the count,
// then the given words verbatim (index, word pairs when well formed).
func sparseStream(n, count uint64, words ...uint64) []byte {
	w := NewWriter()
	w.U64(n)
	w.U64(count)
	for _, v := range words {
		w.U64(v)
	}
	return w.Finish()
}

func TestSparseRoundTrip(t *testing.T) {
	words := make([]uint64, 64)
	words[0], words[17], words[63] = 5, math.MaxUint64, 1
	ids := []int32{-1, 0, -1, 7, math.MaxInt32, math.MinInt32, -1, -2}

	w := NewWriter()
	WriteSparse(w, words, 0)
	WriteSparse(w, ids, -1)
	WriteSparse(w, make([]uint64, 8), 0)
	data := w.Finish()
	// Header, then per table its length and count plus two words for each
	// entry off the default: 3 + 5 + 0 entries.
	if want := len(magic) + 8*(2*3+2*(3+5)); len(data) != want {
		t.Fatalf("encoded %d bytes, want %d", len(data), want)
	}

	r, err := NewReader(data)
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
	ReadSparse(r, gotWords, 0)
	ReadSparse(r, gotIDs, -1)
	ReadSparse(r, empty, 0)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotWords, words) || !reflect.DeepEqual(gotIDs, ids) || !reflect.DeepEqual(empty, make([]uint64, 8)) {
		t.Fatalf("round trip differs:\nwords %v\nids %v\nempty %v", gotWords, gotIDs, empty)
	}
}

// TestSparseRejectsNonCanonical: every stream that is not the one encoding
// WriteSparse would produce latches ErrMalformed.
func TestSparseRejectsNonCanonical(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		i32  bool // decode into an int32 table defaulting to -1
	}{
		{"length mismatch", sparseStream(7, 0), false},
		{"descending indices", sparseStream(8, 2, 5, 1, 3, 1), false},
		{"repeated index", sparseStream(8, 2, 3, 1, 3, 2), false},
		{"index at length", sparseStream(8, 1, 8, 1), false},
		{"index beyond length", sparseStream(8, 1, math.MaxUint64, 1), false},
		{"explicit default", sparseStream(8, 1, 2, 0), false},
		{"explicit default int32", sparseStream(8, 1, 2, 0), true},
		{"word beyond int32", sparseStream(8, 1, 2, 1<<32), true},
		{"int32 word not sign-extended", sparseStream(8, 1, 2, 0xFFFFFFFF), true},
		{"count beyond stream", sparseStream(8, 2, 1, 1), false},
		{"huge count", sparseStream(8, math.MaxUint64), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if tc.i32 {
				ReadSparse(r, make([]int32, 8), -1)
			} else {
				ReadSparse(r, make([]uint64, 8), 0)
			}
			if err := r.Err(); !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
		})
	}
}

// TestSparseTruncated: every truncation of a valid stream latches an error
// without panicking, and later reads keep returning zero values.
func TestSparseTruncated(t *testing.T) {
	table := []uint64{0, 4, 0, 9, 0, 0, 1, 0}
	w := NewWriter()
	WriteSparse(w, table, 0)
	w.U64(42)
	data := w.Finish()
	for n := len(magic); n < len(data); n++ {
		r, err := NewReader(data[:n])
		if err != nil {
			t.Fatal(err)
		}
		ReadSparse(r, make([]uint64, len(table)), 0)
		if v := r.U64(); r.Err() == nil || v != 0 {
			t.Fatalf("truncation to %d bytes: err %v, trailing word %d", n, r.Err(), v)
		}
	}
}
