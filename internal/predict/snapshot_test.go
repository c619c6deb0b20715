package predict

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/snap"
)

func storeSetsSnapshot(s *StoreSets) []byte {
	st := snap.NewEncoder(nil)
	s.Snap(st)
	return st.Finish()
}

func restoreStoreSets(s *StoreSets, data []byte) error {
	st, err := snap.NewDecoder(data)
	if err != nil {
		return err
	}
	s.Snap(st)
	return st.Done()
}

// TestStoreSetsSnapshotRoundTrip: the SSIT's -1 default and trained set
// IDs survive the sparse encoding, including into a predictor that holds
// other assignments.
func TestStoreSetsSnapshotRoundTrip(t *testing.T) {
	s := NewStoreSets(12, 256)
	s.Violation(0x1000, 0x2000)
	s.Violation(0x1040, 0x2000)
	s.DependsOn(0x2000, true, 77)
	data := storeSetsSnapshot(s)

	dst := NewStoreSets(12, 256)
	dst.Violation(0x3000, 0x4000)
	if err := restoreStoreSets(dst, data); err != nil {
		t.Fatal(err)
	}
	if got := storeSetsSnapshot(dst); !bytes.Equal(got, data) {
		t.Fatal("restored store sets re-encode differently")
	}
	if dst.ssit[dst.idx(0x3000)] != -1 {
		t.Error("an assignment absent from the snapshot survived the restore")
	}
	if dep := dst.DependsOn(0x1000, false, 0); dep != 77 {
		t.Errorf("restored load depends on %d, want store tag 77", dep)
	}
}

// TestStoreSetsRestoreRejectsUnknownSet: an SSIT entry naming a set the
// LFST does not have would index past it on the next lookup; restore must
// refuse it.
func TestStoreSetsRestoreRejectsUnknownSet(t *testing.T) {
	for _, set := range []int32{256, -2} {
		bad := NewStoreSets(12, 256)
		bad.ssit[5] = set
		if err := restoreStoreSets(NewStoreSets(12, 256), storeSetsSnapshot(bad)); !errors.Is(err, snap.ErrMalformed) {
			t.Errorf("SSIT entry %d: err = %v, want ErrMalformed", set, err)
		}
	}
}
