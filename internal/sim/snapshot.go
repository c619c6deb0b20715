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

// Snapshot serializes the machine's complete simulated state. The snapshot
// pairs with the Spec the machine was built from: Restore rebuilds an
// identical machine and overlays this state onto it. Observer attachments
// (Metrics, Events, trace hooks) are not captured; a restored machine
// starts with whatever observers its fresh build has.
func (m *Machine) Snapshot() ([]byte, error) {
	// The encoding grows by a few percent per checkpoint interval as the run
	// touches new cache lines and predictor entries; the slack keeps the next
	// snapshot inside one allocation.
	w := snap.NewWriterSize(m.snapHint + m.snapHint/16 + 4096)
	w.U64(snapshotVersion)
	m.Machine.SnapshotTo(w)
	w.Int(len(m.Devices))
	for _, d := range m.Devices {
		d.SnapshotTo(w)
	}
	w.Int(len(m.bridges))
	for _, br := range m.bridges {
		if br == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.U64(uint64(len(br.addrs)))
		for _, a := range br.addrs {
			w.U64(a)
		}
		w.U64(uint64(len(br.vals)))
		for _, v := range br.vals {
			w.U64(v)
		}
	}
	out := w.Finish()
	m.snapHint = len(out)
	return out, nil
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
	r, nerr := snap.NewReader(data)
	if nerr != nil {
		return nerr
	}
	if v := r.U64(); v != snapshotVersion {
		return fmt.Errorf("sim: snapshot version %d, want %d", v, snapshotVersion)
	}
	if err := m.Machine.RestoreFrom(r); err != nil {
		return err
	}
	if r.Int() != len(m.Devices) {
		r.Failf("device count mismatch")
		return r.Err()
	}
	for _, d := range m.Devices {
		d.RestoreFrom(r)
	}
	if r.Int() != len(m.bridges) {
		r.Failf("bridge count mismatch")
		return r.Err()
	}
	for i, br := range m.bridges {
		has := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if has != (br != nil) {
			r.Failf("bridge %d presence mismatch", i)
			return r.Err()
		}
		if br == nil {
			continue
		}
		na := r.Count(8)
		br.addrs = br.addrs[:0]
		for j := 0; j < na; j++ {
			br.addrs = append(br.addrs, r.U64())
		}
		nv := r.Count(8)
		br.vals = br.vals[:0]
		for j := 0; j < nv; j++ {
			br.vals = append(br.vals, r.U64())
		}
	}
	m.snapHint = len(data)
	return r.Done()
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
