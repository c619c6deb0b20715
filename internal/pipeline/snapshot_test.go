package pipeline

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/snap"
)

// Snapshot encodes the machine's state as a standalone stream.
func (m *Machine) Snapshot() []byte {
	s := snap.NewEncoder(nil)
	m.Snap(s)
	return s.Finish()
}

// Restore overlays a stream produced by Snapshot onto an identically built
// machine.
func (m *Machine) Restore(data []byte) error {
	s, err := snap.NewDecoder(data)
	if err != nil {
		return err
	}
	m.Snap(s)
	return s.Done()
}

// midRunSRT runs an SRT pair on gcc to the top of cycle 1500 and returns
// it with its leading context, mid-flight: the window holds both issued
// instructions and IQ residents.
func midRunSRT(t *testing.T) (*Machine, *Context) {
	t.Helper()
	m, lead, _, _ := srtMachine(t, program.MustBuild("gcc"), 4000, DefaultConfig())
	for m.Cycles = 0; m.Cycles < 1500; m.Cycles++ {
		for _, co := range m.Cores {
			co.Step()
		}
	}
	return m, lead
}

// iqResident returns the context's oldest IQ resident and a window
// resident that has issued.
func iqResident(t *testing.T, c *Context) (resident, issued *dynInst) {
	t.Helper()
	for i := 0; i < c.rob.Len(); i++ {
		d := c.rob.At(i)
		if d.inIQ && resident == nil {
			resident = d
		}
		if d.issued && issued == nil {
			issued = d
		}
	}
	if resident == nil || issued == nil {
		t.Fatal("window lacks an IQ resident or an issued instruction")
	}
	return resident, issued
}

func words(ws ...int) []byte {
	b := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(w)))
	}
	return b
}

// iqSection returns the byte offset of c's IQ section in a snapshot of its
// machine. The section follows the window's: each is a length word and
// then instruction indices, which are unique in the stream.
func iqSection(t *testing.T, c *Context, snapshot []byte) int {
	t.Helper()
	sc := c.enumerate()
	sec := []int{c.rob.Len()}
	for i := 0; i < c.rob.Len(); i++ {
		sec = append(sec, sc.index[c.rob.At(i)])
	}
	var iq []int
	for i := 0; i < c.rob.Len(); i++ {
		if d := c.rob.At(i); d.inIQ {
			iq = append(iq, sc.index[d])
		}
	}
	sec = append(sec, len(iq))
	sec = append(sec, iq...)
	pat := words(sec...)
	if bytes.Count(snapshot, pat) != 1 {
		t.Fatalf("window and IQ sections not found exactly once in the snapshot")
	}
	return bytes.Index(snapshot, pat) + 8*(1+c.rob.Len())
}

// TestRestoreRejectsInconsistentIQ: restore checks the IQ section against
// the restored window and flags. Each corrupt snapshot must be refused
// with an error, never accepted into a machine whose scheduler and flags
// disagree, and never panic (a wrong thread id would otherwise index past
// the core's contexts when the wheel releases the entry).
func TestRestoreRejectsInconsistentIQ(t *testing.T) {
	const notResident = "is not the window's next IQ resident"
	cases := []struct {
		name    string
		want    string
		corrupt func(t *testing.T, m *Machine, c *Context) []byte
	}{
		{"issued instruction flagged inIQ", "has issued", func(t *testing.T, m *Machine, c *Context) []byte {
			d, _ := iqResident(t, c)
			d.issued = true
			return m.Snapshot()
		}},
		{"tid naming another context", "belongs to thread 1", func(t *testing.T, m *Machine, c *Context) []byte {
			d, _ := iqResident(t, c)
			d.tid = c.TID + 1
			return m.Snapshot()
		}},
		{"tid past every context", "belongs to thread 9", func(t *testing.T, m *Machine, c *Context) []byte {
			d, _ := iqResident(t, c)
			d.tid = 9
			return m.Snapshot()
		}},
		{"IQ length differs from occupancy", "occupancy is", func(t *testing.T, m *Machine, c *Context) []byte {
			c.iqOccupancy++
			return m.Snapshot()
		}},
		{"IQ entry is an issued window resident", notResident, func(t *testing.T, m *Machine, c *Context) []byte {
			_, issued := iqResident(t, c)
			s := m.Snapshot()
			off := iqSection(t, c, s)
			binary.LittleEndian.PutUint64(s[off+8:], uint64(c.enumerate().index[issued]))
			return s
		}},
		{"IQ entry outside the window", notResident, func(t *testing.T, m *Machine, c *Context) []byte {
			if c.rmb.Empty() {
				t.Fatal("rate-matching buffer is empty")
			}
			s := m.Snapshot()
			off := iqSection(t, c, s)
			binary.LittleEndian.PutUint64(s[off+8:], uint64(c.enumerate().index[c.rmb.Front()]))
			return s
		}},
		{"IQ entry listed twice", notResident, func(t *testing.T, m *Machine, c *Context) []byte {
			if c.iqOccupancy < 2 {
				t.Fatal("fewer than two IQ residents")
			}
			s := m.Snapshot()
			off := iqSection(t, c, s)
			copy(s[off+16:off+24], s[off+8:off+16])
			return s
		}},
		{"IQ entry index out of range", "out of range", func(t *testing.T, m *Machine, c *Context) []byte {
			s := m.Snapshot()
			off := iqSection(t, c, s)
			binary.LittleEndian.PutUint64(s[off+8:], 1<<40)
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, lead := midRunSRT(t)
			bad := tc.corrupt(t, m, lead)
			fresh, _, _, _ := srtMachine(t, program.MustBuild("gcc"), 4000, DefaultConfig())
			if err := fresh.Restore(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error = %v, want one containing %q", err, tc.want)
			}
		})
	}
	// The untouched snapshot restores: the cases fail for their corruption.
	m, _ := midRunSRT(t)
	fresh, _, _, _ := srtMachine(t, program.MustBuild("gcc"), 4000, DefaultConfig())
	if err := fresh.Restore(m.Snapshot()); err != nil {
		t.Fatalf("clean snapshot: %v", err)
	}
}

// records returns the set of instruction records c holds: in its queues,
// as its pending branch, or in its recycling pool.
func records(c *Context) map[*dynInst]bool {
	held := make(map[*dynInst]bool)
	for _, d := range c.enumerate().insts {
		held[d] = true
	}
	return held
}

// stepTo steps every core of m up to the top of cycle k.
func stepTo(m *Machine, k uint64) {
	for ; m.Cycles < k; m.Cycles++ {
		for _, co := range m.Cores {
			co.Step()
		}
	}
}

// TestRestoreInPlace restores snapshots into used machines: one that has
// run ahead and holds more instruction records than an early snapshot
// lists, and one that has barely run and holds fewer than a later one
// lists. Each context must take the records it lists from those it held,
// allocating only the shortfall, keep its one tombstone across restores,
// re-encode to the stream, and resume cycle-identically with a fresh
// machine restored from the same stream, the wakeup invariant holding on
// every cycle.
func TestRestoreInPlace(t *testing.T) {
	prog := program.MustBuild("gcc")
	const budget = 4000
	build := func() *Machine {
		m, _, _, _ := srtMachine(t, prog, budget, DefaultConfig())
		return m
	}
	snapshotAt := func(k uint64) []byte {
		m := build()
		stepTo(m, k)
		return m.Snapshot()
	}
	ahead, behind := build(), build()
	stepTo(ahead, 3500)
	stepTo(behind, 40)
	cases := []struct {
		name string
		snap []byte
		used *Machine
		more bool // the used machine holds more records than the stream lists
	}{
		{"more", snapshotAt(150), ahead, true},
		{"fewer", snapshotAt(1500), behind, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := build()
			if err := ref.Restore(tc.snap); err != nil {
				t.Fatal(err)
			}
			ctxs := tc.used.allContexts()
			held := make([]map[*dynInst]bool, len(ctxs))
			for i, c := range ctxs {
				held[i] = records(c)
				listed := len(ref.allContexts()[i].enumerate().insts)
				if tc.more != (len(held[i]) > listed) || len(held[i]) == listed {
					t.Fatalf("context %d holds %d records, the stream lists %d", i, len(held[i]), listed)
				}
			}
			if err := tc.used.Restore(tc.snap); err != nil {
				t.Fatal(err)
			}
			tombs := make([]*dynInst, len(ctxs))
			for i, c := range ctxs {
				now := records(c)
				for d := range now {
					if tc.more && !held[i][d] {
						t.Fatalf("context %d allocated a record while holding spares", i)
					}
				}
				for d := range held[i] {
					if !tc.more && !now[d] {
						t.Fatalf("context %d dropped a record it held while short of records", i)
					}
				}
				held[i], tombs[i] = now, c.snapTable.dead
			}
			// Restoring the same stream again reuses exactly the same
			// records and the same tombstone.
			if err := tc.used.Restore(tc.snap); err != nil {
				t.Fatal(err)
			}
			for i, c := range ctxs {
				if now := records(c); len(now) != len(held[i]) || c.snapTable.dead != tombs[i] {
					t.Fatalf("context %d: second restore changed its records or its tombstone", i)
				}
				for d := range held[i] {
					if !records(c)[d] {
						t.Fatalf("context %d: second restore replaced a record", i)
					}
				}
			}
			if !bytes.Equal(tc.used.Snapshot(), tc.snap) {
				t.Fatal("used machine does not re-encode to the stream it restored")
			}
			checkEveryCycle(t, tc.used)
			for _, m := range []*Machine{ref, tc.used} {
				if _, err := m.Run(3_000_000); err != nil {
					t.Fatal(err)
				}
			}
			if tc.used.Cycles != ref.Cycles || !bytes.Equal(tc.used.Snapshot(), ref.Snapshot()) {
				t.Errorf("used machine ended at cycle %d, fresh restore at %d, or their final states differ", tc.used.Cycles, ref.Cycles)
			}
		})
	}
}
