package sim

import (
	"fmt"

	"repro/internal/snap"
)

// snapshotVersion frames the sim-level snapshot: the pipeline state plus
// the machine assembly's own mutable pieces (pseudo-devices and uncached
// I/O replication bridges). Version 2 encodes caches and predictor word
// tables sparsely.
const snapshotVersion = 2

// Snapshot serializes the machine's complete simulated state into fresh
// bytes the caller owns. The snapshot pairs with the Spec the machine was
// built from: Restore rebuilds an identical machine and overlays this state
// onto it. Observer attachments (Metrics, Events, trace hooks) are not
// captured; a restored machine starts with whatever observers its fresh
// build has.
func (m *Machine) Snapshot() ([]byte, error) {
	// The encoding grows by a few percent per checkpoint interval as the run
	// touches new cache lines and predictor entries; the slack keeps the next
	// snapshot inside one allocation.
	return m.AppendSnapshot(make([]byte, 0, m.snapHint+m.snapHint/16+4096)), nil
}

// AppendSnapshot appends the machine's snapshot, the bytes Snapshot would
// return, to dst and returns the extended slice. A caller that recycles
// its buffers passes one back as dst[:0]: once the buffer has grown to a
// snapshot's size, capturing allocates nothing.
func (m *Machine) AppendSnapshot(dst []byte) []byte {
	s := snap.NewEncoder(dst)
	m.snap(s)
	out := s.Finish()
	m.snapHint = len(out) - len(dst)
	return out
}

// RestoreState overlays a snapshot onto this machine, which must have been
// built from the same Spec the snapshot was taken under. On error the
// machine's state is undefined and it must be discarded. Structural
// validation happens in the decoder; the recover guard converts any
// residual inconsistency (a queue invariant a hand-crafted stream violates)
// into an error instead of a crash.
func (m *Machine) RestoreState(data []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sim: restore: %v", p)
		}
	}()
	s, err := snap.NewDecoder(data)
	if err != nil {
		return err
	}
	m.snap(s)
	m.snapHint = len(data)
	return s.Done()
}

// snap visits the version word, the pipeline state, then each device and
// each redundant program's I/O bridge.
func (m *Machine) snap(s *snap.Stream) {
	v := uint64(snapshotVersion)
	s.U64(&v)
	if v != snapshotVersion {
		s.Failf("snapshot version %d, want %d", v, snapshotVersion)
		return
	}
	m.Machine.Snap(s)
	if !s.Len(len(m.Devices), "device count mismatch") {
		return
	}
	for _, d := range m.Devices {
		d.Snap(s)
	}
	if !s.Len(len(m.bridges), "bridge count mismatch") {
		return
	}
	for i, br := range m.bridges {
		has := br != nil
		s.Bool(&has)
		if has != (br != nil) {
			s.Failf("bridge %d presence mismatch", i)
			return
		}
		if br != nil {
			br.snap(s)
		}
	}
}

// snap visits the bridge's queued (addr, value) stream.
func (br *ioBridge) snap(s *snap.Stream) {
	snap.Slice(s, &br.addrs, 8)
	for i := range br.addrs {
		s.U64(&br.addrs[i])
	}
	snap.Slice(s, &br.vals, 8)
	for i := range br.vals {
		s.U64(&br.vals[i])
	}
}

// Restore builds a fresh machine from spec and overlays the snapshot onto
// it. spec must be the Spec the snapshot was taken under (same mode,
// programs, sizes, and configuration); geometry mismatches are detected
// and returned as errors.
func Restore(spec Spec, data []byte) (*Machine, error) {
	m, err := Build(spec)
	if err != nil {
		return nil, err
	}
	if err := m.RestoreState(data); err != nil {
		return nil, err
	}
	return m, nil
}
