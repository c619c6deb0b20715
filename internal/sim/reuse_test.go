package sim

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"

	"repro/internal/vm"
)

// Restoring in place and recycling snapshot buffers. A restore into a used
// machine must leave it exactly as a restore into a fresh build leaves
// one; SRTR's recycled checkpoints must never lose a rollback target's
// bytes; and once a machine's buffers and records have grown, capturing
// allocates nothing and restoring allocates a fixed handful of objects.

// holdings counts the instruction records a machine's contexts hold (in
// flight or in their recycling pools) and the pages of its committed
// memories.
func holdings(m *Machine) (records, pages int) {
	seen := map[*vm.Memory]bool{}
	for _, co := range m.Cores {
		for _, c := range co.Contexts() {
			rob, rmb, _, _, _ := c.Occupancy()
			records += rob + rmb + len(c.PoolGenerations())
			if b := c.Arch.Mem.Backing(); !seen[b] {
				seen[b] = true
				pages += b.Pages()
			}
		}
	}
	return records, pages
}

// TestRestoreIntoUsedMachine restores a snapshot into a machine that has
// run, and checks it against a restore into a fresh build: the two must
// re-encode to the snapshot's bytes and resume cycle-identically. One used
// machine has finished its run and holds more instruction records and
// memory pages than the early snapshot lists; the other has run a few
// cycles and holds fewer than the late snapshot lists.
func TestRestoreIntoUsedMachine(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			spec := snapSpec(mode, "gcc")
			early, finished := runToCycle(t, spec, 400)
			late, _ := runToCycle(t, spec, 3000)
			barely, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := barely.Machine.Run(20); err != nil {
				t.Fatal(err)
			}
			cases := []struct {
				name string
				snap []byte
				used *Machine
				more bool // the used machine holds more than the stream lists
			}{
				{"more", early, finished, true},
				{"fewer", late, barely, false},
			}
			for _, tc := range cases {
				fresh, err := Restore(spec, tc.snap)
				if err != nil {
					t.Fatal(err)
				}
				usedRecords, usedPages := holdings(tc.used)
				listedRecords, listedPages := holdings(fresh)
				if tc.more != (usedRecords > listedRecords) || tc.more != (usedPages > listedPages) {
					t.Fatalf("%s: used machine holds %d records and %d pages, the stream %d and %d",
						tc.name, usedRecords, usedPages, listedRecords, listedPages)
				}
				if err := tc.used.RestoreState(tc.snap); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				for _, m := range []*Machine{fresh, tc.used} {
					again, err := m.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(again, tc.snap) {
						t.Fatalf("%s: restored machine re-encodes to %d bytes, not the stream's %d", tc.name, len(again), len(tc.snap))
					}
				}
				want, err := fresh.Run()
				if err != nil {
					t.Fatal(err)
				}
				got, err := tc.used.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: run resumed in the used machine differs:\nfresh: %+v\nused:  %+v", tc.name, want, got)
				}
				a, _ := fresh.Snapshot()
				b, _ := tc.used.Snapshot()
				if !bytes.Equal(a, b) {
					t.Errorf("%s: final snapshots differ", tc.name)
				}
			}
		})
	}
}

// TestSRTRRecycledCheckpointsRestoreIntact injects result faults into the
// leading copy of an SRTR run, each firing once, so the machine rolls back
// several times while it recycles the checkpoints it drops. The state the
// machine enters at each rollback must hash the same as the state the
// checkpoint captured at that cycle, and the recovered run must end in the
// fault-free run's state.
func TestSRTRRecycledCheckpointsRestoreIntact(t *testing.T) {
	spec := Spec{
		Mode: ModeSRTR, Programs: []string{"gcc"},
		Budget: 12000, Warmup: 1000,
		Config: snapSpec(ModeSRTR).Config, PSR: true,
		CheckpointInterval: 512,
	}
	build := func() *Machine {
		m, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Leads[0].Arch.Tolerant = true
		m.Trails[0].Arch.Tolerant = true
		return m
	}
	ref := build()
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Snapshot()

	m := build()
	faults := []uint64{3000, 6000, 9000}
	fired := make([]bool, len(faults))
	m.Leads[0].Arch.Corrupt = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
		for i, at := range faults {
			if !fired[i] && point == vm.PointResult && seq >= at {
				fired[i] = true
				return v ^ 1<<7
			}
		}
		return v
	}
	// A capture and the top of the next cycle see the same state, so the
	// hook hashes every boundary a checkpoint may be taken at, and checks
	// the state a rollback lands in against the hash of its capture.
	var buf []byte
	captured := map[uint64][32]byte{}
	boundaries, restores := 0, 0
	last := uint64(0)
	m.OnCycle = func(cycle uint64) error {
		if cycle%spec.CheckpointInterval != 0 {
			last = cycle
			return nil
		}
		buf = m.AppendSnapshot(buf[:0])
		h := sha256.Sum256(buf)
		if cycle < last {
			restores++
			if c, ok := captured[cycle]; !ok || c != h {
				t.Errorf("rollback to cycle %d restored state that hashes differently from its capture", cycle)
			}
		}
		captured[cycle] = h
		boundaries++
		last = cycle
		return nil
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, f := range fired {
		if !f {
			t.Fatalf("fault %d at seq %d never fired", i, faults[i])
		}
	}
	if m.Recoveries < len(faults) || restores != m.Recoveries {
		t.Fatalf("%d recoveries, %d rollbacks seen, want %d of each", m.Recoveries, restores, len(faults))
	}
	if spares := len(m.spareCkpts); spares == 0 || 4*spares > boundaries {
		t.Errorf("%d checkpoints made for %d boundaries: dropped checkpoints were not reused", spares, boundaries)
	}
	m.OnCycle = nil
	got, _ := m.Snapshot()
	if !bytes.Equal(got, want) {
		t.Error("recovered run does not end in the fault-free run's state")
	}
}

// TestSnapshotCaptureAllocs pins the steady-state capture: once a buffer
// has grown to a snapshot's size, appending a snapshot into it allocates
// nothing, in every machine organisation, and neither does an SRTR
// capture that reuses a released checkpoint.
func TestSnapshotCaptureAllocs(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, m := runToCycle(t, snapSpec(mode, "gcc", "swim"), 100)
			buf := m.AppendSnapshot(nil)
			if n := testing.AllocsPerRun(20, func() { buf = m.AppendSnapshot(buf[:0]) }); n != 0 {
				t.Errorf("capture allocates %.1f objects, want 0", n)
			}
			if mode != ModeSRTR {
				return
			}
			m.release(m.capture())
			if n := testing.AllocsPerRun(20, func() { m.release(m.capture()) }); n != 0 {
				t.Errorf("SRTR capture allocates %.1f objects, want 0", n)
			}
		})
	}
}

// restoreAllocBound caps the objects a restore into a used machine may
// allocate: the decoding Stream and its reader. Instruction records,
// pages, overlay words and variable-length tables are all reused.
const restoreAllocBound = 2

// TestRestoreAllocsBounded pins restore in place: restoring a snapshot
// into a machine that already holds its records and pages allocates the
// same bounded handful of objects for an early snapshot as for a late one
// holding many more instructions and pages.
func TestRestoreAllocsBounded(t *testing.T) {
	spec := snapSpec(ModeSRT, "gcc", "swim")
	var counts []float64
	for _, k := range []uint64{30, 3000} {
		data, m := runToCycle(t, spec, k)
		if err := m.RestoreState(data); err != nil {
			t.Fatal(err)
		}
		records, pages := holdings(m)
		n := testing.AllocsPerRun(10, func() {
			if err := m.RestoreState(data); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("cycle %d: %d records, %d pages: %.0f allocations per restore", k, records, pages, n)
		if n > restoreAllocBound {
			t.Errorf("restore at cycle %d allocates %.0f objects, want at most %d", k, n, restoreAllocBound)
		}
		counts = append(counts, n)
	}
	if counts[0] != counts[1] {
		t.Errorf("restore allocations grow with the state: %.0f early, %.0f late", counts[0], counts[1])
	}
}
