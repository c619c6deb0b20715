package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// operandsReady is the reference readiness rule the wakeup lists must
// reproduce: every register operand will be available at the bypass network
// by register read. Stores issue on their address operand alone: the data
// value follows the address into the store queue (§3.4), so a store need not
// wait for its data producer to issue.
func (co *Core) operandsReady(d *dynInst) bool {
	ready := func(r instRef) bool {
		// A recycled producer was retired before recycling, so the stale
		// reference resolving to nil gives the same answer as before.
		p := r.get()
		if p == nil || p.retired {
			return true
		}
		return p.issued && p.doneCycle <= co.cycle+RBOXLatency
	}
	if d.isStore() {
		return ready(d.srcA)
	}
	return ready(d.srcA) && ready(d.srcB) && ready(d.srcD)
}

// checkWakeup releases the current wheel slot, as issueStage does first,
// and checks the wakeup state against the oracle:
//
//   - every IQ resident is on exactly one list (a consumers list, the
//     wheel or a ready list) and nothing else is;
//   - a consumer waits on one of its own producers, which has not issued;
//   - a wheel entry sits in its cycle's slot, in the future;
//   - each ready list is in strictly increasing age and holds no resident
//     the oracle calls not ready;
//   - every resident with earliestIssue <= cycle that the oracle calls
//     ready is in its context's ready list.
//
// Releasing early is harmless: the retire and drain stages that run before
// issueStage never touch the lists, and the second release of a slot in
// one cycle finds only later laps.
func checkWakeup(t testing.TB, co *Core, seen map[*dynInst]string) {
	t.Helper()
	co.releaseWheel()
	clear(seen)
	note := func(d *dynInst, where string) {
		t.Helper()
		if prev, dup := seen[d]; dup {
			t.Fatalf("cycle %d: seq %d is on two lists (%s, %s)", co.cycle, d.out.Seq, prev, where)
		}
		seen[d] = where
	}
	for _, c := range co.ctxs {
		for i := 0; i < c.rob.Len(); i++ {
			p := c.rob.At(i)
			for d := p.consumers; d != nil; d = d.wakeNext {
				note(d, "consumers")
				if p.issued {
					t.Fatalf("cycle %d: seq %d waits on issued producer seq %d", co.cycle, d.out.Seq, p.out.Seq)
				}
				if d.srcA.get() != p && (d.isStore() || (d.srcB.get() != p && d.srcD.get() != p)) {
					t.Fatalf("cycle %d: seq %d waits on seq %d, not one of its operands", co.cycle, d.out.Seq, p.out.Seq)
				}
			}
		}
	}
	for s, head := range co.wheel {
		for d := head; d != nil; d = d.wakeNext {
			note(d, "wheel")
			if d.wakeAt&wheelMask != uint64(s) || d.wakeAt <= co.cycle {
				t.Fatalf("cycle %d: seq %d ready at %d sits in wheel slot %d", co.cycle, d.out.Seq, d.wakeAt, s)
			}
		}
	}
	for _, c := range co.ctxs {
		var prev *dynInst
		for d := c.readyHead; d != nil; d = d.wakeNext {
			note(d, "ready")
			switch {
			case prev != nil && d.out.Seq <= prev.out.Seq:
				t.Fatalf("cycle %d t%d: ready list out of age order at seq %d", co.cycle, c.TID, d.out.Seq)
			case !d.inIQ || d.issued:
				t.Fatalf("cycle %d t%d: ready seq %d is not an unissued IQ resident", co.cycle, c.TID, d.out.Seq)
			case d.tid != c.TID:
				t.Fatalf("cycle %d t%d: ready seq %d belongs to t%d", co.cycle, c.TID, d.out.Seq, d.tid)
			case !co.operandsReady(d):
				t.Fatalf("cycle %d t%d: seq %d is ready-listed but the oracle's operands are not ready", co.cycle, c.TID, d.out.Seq)
			}
			prev = d
		}
	}
	residents := 0
	for _, c := range co.ctxs {
		for i := 0; i < c.rob.Len(); i++ {
			d := c.rob.At(i)
			if !d.inIQ {
				continue
			}
			residents++
			where, ok := seen[d]
			if !ok {
				t.Fatalf("cycle %d t%d: IQ resident seq %d is on no wakeup list", co.cycle, c.TID, d.out.Seq)
			}
			if d.earliestIssue <= co.cycle && co.operandsReady(d) && where != "ready" {
				t.Fatalf("cycle %d t%d: seq %d is ready per the oracle but waits on the %s list", co.cycle, c.TID, d.out.Seq, where)
			}
		}
	}
	if residents != len(seen) {
		t.Fatalf("cycle %d: %d list entries for %d IQ residents", co.cycle, len(seen), residents)
	}
}

// checkEveryCycle installs checkWakeup on every core at the top of every
// cycle of m.Run.
func checkEveryCycle(t testing.TB, m *Machine) {
	seen := make(map[*dynInst]string)
	m.OnCycle = func(uint64) error {
		for _, co := range m.Cores {
			checkWakeup(t, co, seen)
		}
		return nil
	}
}

// wakeupBuilders wires one program into each machine organisation the
// pipeline builds by hand: base (one context), SRT (a pair on one core)
// and CRT (a pair across two cores).
var wakeupBuilders = []struct {
	name  string
	build func(t *testing.T, prog *isa.Program, budget uint64, cfg Config) *Machine
}{
	{"base", func(t *testing.T, prog *isa.Program, budget uint64, cfg Config) *Machine {
		core := NewCore(0, cfg, nil)
		wire(core, prog, RoleSingle, budget)
		core.FinalizeQueues()
		return &Machine{Cores: []*Core{core}}
	}},
	{"srt", func(t *testing.T, prog *isa.Program, budget uint64, cfg Config) *Machine {
		m, _, _, _ := srtMachine(t, prog, budget, cfg)
		return m
	}},
	{"crt", func(t *testing.T, prog *isa.Program, budget uint64, cfg Config) *Machine {
		m, _, _, _ := crtMachine(t, prog, budget, cfg)
		return m
	}},
}

// TestWakeupMatchesOracle checks the wakeup invariant at every cycle of
// the differential tests' random programs, run to HALT, and of every
// curated kernel, in base, SRT and CRT.
func TestWakeupMatchesOracle(t *testing.T) {
	type workload struct {
		name   string
		prog   *isa.Program
		budget uint64
	}
	var loads []workload
	for seed := uint64(1); seed <= 4; seed++ {
		g := &progGen{state: seed * 0xBF58476D1CE4E5B9}
		loads = append(loads, workload{fmt.Sprintf("rand%d", seed), g.gen(20), 10_000_000})
	}
	for _, name := range program.Names() {
		loads = append(loads, workload{name, program.MustBuild(name), 2000})
	}
	for _, b := range wakeupBuilders {
		for _, w := range loads {
			b, w := b, w
			t.Run(b.name+"/"+w.name, func(t *testing.T) {
				t.Parallel()
				m := b.build(t, w.prog, w.budget, DefaultConfig())
				checkEveryCycle(t, m)
				if _, err := m.Run(3_000_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestWakeupAcrossRestore checks the invariant on a machine restored from
// a mid-run snapshot, from the first cycle after the rebuild, and that the
// restored run ends in the same state as the uninterrupted one.
func TestWakeupAcrossRestore(t *testing.T) {
	g := &progGen{state: 0x94D049BB133111EB}
	progs := map[string]*isa.Program{"rand": g.gen(20), "gcc": program.MustBuild("gcc")}
	for _, b := range wakeupBuilders {
		for _, name := range []string{"rand", "gcc"} {
			b, prog := b, progs[name]
			t.Run(b.name+"/"+name, func(t *testing.T) {
				t.Parallel()
				const budget, at = 4000, 1500
				ref := b.build(t, prog, budget, DefaultConfig())
				var mid []byte
				ref.OnCycle = func(cycle uint64) error {
					if cycle == at {
						mid = ref.Snapshot()
					}
					return nil
				}
				if _, err := ref.Run(3_000_000); err != nil {
					t.Fatal(err)
				}
				if mid == nil {
					t.Fatalf("run ended before cycle %d", at)
				}
				restored := b.build(t, prog, budget, DefaultConfig())
				if err := restored.Restore(mid); err != nil {
					t.Fatal(err)
				}
				checkEveryCycle(t, restored)
				if _, err := restored.Run(3_000_000); err != nil {
					t.Fatal(err)
				}
				if restored.Cycles != ref.Cycles {
					t.Errorf("restored run ended at cycle %d, uninterrupted at %d", restored.Cycles, ref.Cycles)
				}
				if !bytes.Equal(restored.Snapshot(), ref.Snapshot()) {
					t.Error("restored run's final snapshot differs from the uninterrupted run's")
				}
			})
		}
	}
}

// ioChain is a loop of uncached loads whose results feed ALU chains, so
// consumers wake on a device access, whose latency is a config knob.
func ioChain(n int64) *isa.Program {
	b := isa.NewBuilder("iochain")
	b.Ldi(isa.R1, n)
	b.Ldi(isa.R2, 0x2000)
	b.Label("top")
	b.Ldio(isa.R3, isa.R2, 0)
	b.Add(isa.R4, isa.R3, isa.R1)
	b.Mul(isa.R5, isa.R4, isa.R3)
	b.Stq(isa.R5, isa.R2, 8)
	b.Add(isa.R6, isa.R5, isa.R4)
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, "top")
	b.Halt()
	return b.MustFinish()
}

// TestWakeupDeviceLoad covers the two edges of the wakeup's timing. With a
// zero device latency, a woken consumer is ready in the cycle its producer
// issues: it joins the ready list behind the producer and may issue in the
// same scan, as under a full scan. With a latency beyond the wheel's size,
// consumers wait in their slot through a lap before they are released.
func TestWakeupDeviceLoad(t *testing.T) {
	for _, lat := range []uint64{0, 1, DefaultConfig().IOLatency, 3 * wheelSlots} {
		for _, b := range wakeupBuilders {
			lat, b := lat, b
			t.Run(fmt.Sprintf("%s/io%d", b.name, lat), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.IOLatency = lat
				m := b.build(t, ioChain(60), 10_000_000, cfg)
				checkEveryCycle(t, m)
				if _, err := m.Run(3_000_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
