package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/snap"
)

func snapshotOf(visit func(*snap.Stream)) []byte {
	s := snap.NewEncoder(nil)
	visit(s)
	return s.Finish()
}

func restoreInto(visit func(*snap.Stream), data []byte) error {
	s, err := snap.NewDecoder(data)
	if err != nil {
		return err
	}
	visit(s)
	return s.Done()
}

// memoryWithPages returns a memory holding one written word on each of
// the given pages.
func memoryWithPages(pns ...uint64) *Memory {
	m := NewMemory()
	for _, pn := range pns {
		m.Write64(pn<<pageShift|8, pn*0x1111+1)
	}
	return m
}

// TestMemoryRestoreInPlace restores a memory image into memories that
// hold more pages than the stream lists and fewer. A listed page the
// target holds keeps its storage and takes the stream's bytes, a missing
// one is allocated, an unlisted one is dropped, and the page cache serves
// nothing stale. The restored memory re-encodes to the stream.
func TestMemoryRestoreInPlace(t *testing.T) {
	src := memoryWithPages(1, 2, 3)
	src.Write64(2<<pageShift|16, 42)
	data := snapshotOf(src.Snap)
	for _, dst := range []*Memory{memoryWithPages(2, 5, 7, 9), memoryWithPages(3)} {
		dst.Read64(5<<pageShift | 8) // caches page 5 when it is resident
		kept := dst.pages[2]
		if err := restoreInto(dst.Snap, data); err != nil {
			t.Fatal(err)
		}
		if kept != nil && dst.pages[2] != kept {
			t.Error("a page both hold was reallocated instead of overwritten")
		}
		if dst.Pages() != 3 {
			t.Errorf("restored memory holds %d pages, want 3", dst.Pages())
		}
		if got := dst.Read64(5<<pageShift | 8); got != 0 {
			t.Errorf("dropped page still reads %#x", got)
		}
		if got := dst.Read64(2<<pageShift | 16); got != 42 {
			t.Errorf("restored page reads %d, want 42", got)
		}
		if again := snapshotOf(dst.Snap); !bytes.Equal(again, data) {
			t.Error("restored memory does not re-encode to the stream")
		}
	}
	// Restoring into a memory that holds exactly the stream's pages
	// allocates nothing but the decoder.
	dst := memoryWithPages(1, 2, 3)
	if n := testing.AllocsPerRun(10, func() {
		if err := restoreInto(dst.Snap, data); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("restore in place allocates %.0f objects, want the decoder's 2", n)
	}
}

// TestMemoryRestoreRejectsUnorderedPages: pages must arrive in strictly
// ascending order, the only order encoding produces.
func TestMemoryRestoreRejectsUnorderedPages(t *testing.T) {
	data := snapshotOf(memoryWithPages(3, 5).Snap)
	// Header, count, then (page number, length, bytes) per page: swap the
	// two page numbers.
	first := len("RMTSNAP1") + 8
	second := first + 8 + 8 + pageSize
	binary.LittleEndian.PutUint64(data[first:], 5)
	binary.LittleEndian.PutUint64(data[second:], 3)
	if err := restoreInto(NewMemory().Snap, data); !errors.Is(err, snap.ErrMalformed) {
		t.Fatalf("descending pages: err = %v, want ErrMalformed", err)
	}
	binary.LittleEndian.PutUint64(data[second:], 5)
	if err := restoreInto(NewMemory().Snap, data); !errors.Is(err, snap.ErrMalformed) {
		t.Fatalf("repeated page: err = %v, want ErrMalformed", err)
	}
}

// TestOverlayRestoreInPlace restores pending store bytes into an overlay
// that holds other pending words: the result reads and re-encodes like
// the source, holds only the stream's words, and builds them from the
// word records the target held.
func TestOverlayRestoreInPlace(t *testing.T) {
	mem := memoryWithPages(1)
	src := NewOverlay(mem)
	src.Store(1<<pageShift|8, 0x0102030405060708, 8, 1)
	src.Store(1<<pageShift|33, 0xaa, 1, 2)
	data := snapshotOf(src.Snap)
	dst := NewOverlay(mem)
	dst.Store(1<<pageShift|8, 7, 8, 9)
	dst.Store(1<<pageShift|64, 7, 4, 10)
	dst.Store(1<<pageShift|128, 7, 8, 11)
	dst.Release(1<<pageShift|128, 7, 8, 11, true) // an empty word record
	held := map[*overlayWord]bool{}
	for _, w := range dst.words {
		held[w] = true
	}
	if err := restoreInto(dst.Snap, data); err != nil {
		t.Fatal(err)
	}
	if len(dst.words) != len(src.words) {
		t.Errorf("restored overlay holds %d words, the source %d", len(dst.words), len(src.words))
	}
	for wa, w := range dst.words {
		if !held[w] {
			t.Errorf("word %#x was allocated while the overlay held spare records", wa<<3)
		}
	}
	for _, a := range []uint64{1<<pageShift | 8, 1<<pageShift | 32, 1<<pageShift | 64} {
		if got, want := dst.Read64(a), src.Read64(a); got != want {
			t.Errorf("Read64(%#x) = %#x, want %#x", a, got, want)
		}
	}
	if dst.PendingBytes() != src.PendingBytes() {
		t.Errorf("%d pending bytes, want %d", dst.PendingBytes(), src.PendingBytes())
	}
	if again := snapshotOf(dst.Snap); !bytes.Equal(again, data) {
		t.Error("restored overlay does not re-encode to the stream")
	}
}
