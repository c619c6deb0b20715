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
	s := snap.NewEncoder(0)
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
