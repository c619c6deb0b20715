package vm_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/snap"
	"repro/internal/vm"
	"repro/internal/vmdiff"
)

// The dispatch differential battery: the compiled per-PC handler tables
// (threaded dispatch, scalar and batch) must be step-for-step and
// bit-for-bit equal to the original decode switch (vmdiff.SwitchStep, the
// oracle), over every opcode, with and without corruption hooks, through
// traps and halts. The battery is an external test package because the
// oracle and the lockstep harness live in internal/vmdiff, which imports
// vm.

// allOps is every defined opcode, used to assert generator coverage.
func allOps() []isa.Op {
	ops := make([]isa.Op, 0, isa.NumOps)
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		ops = append(ops, op)
	}
	return ops
}

// diffRNG is a tiny xorshift for deterministic program generation.
type diffRNG uint64

func (r *diffRNG) next() uint64 {
	x := uint64(*r) | 1
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = diffRNG(x)
	return x
}

// randProgram builds a random program exercising op (and whatever else the
// generator draws), with in-range branch targets and a data image. The
// program is not verifier-clean — wild jumps are possible — so executions
// run Tolerant, which is itself part of what the battery checks (traps
// must match across engines).
func randProgram(seed uint64, op isa.Op) *isa.Program {
	r := diffRNG(seed)
	const n = 64
	code := make([]isa.Instr, n)
	for i := range code {
		o := isa.Op(r.next() % uint64(isa.NumOps))
		if i == 7 { // force the op under test to appear early
			o = op
		}
		ins := isa.Instr{
			Op: o,
			Rd: isa.Reg(r.next() % 32),
			Ra: isa.Reg(r.next() % 32),
			Rb: isa.Reg(r.next() % 32),
		}
		switch {
		case ins.IsBranch() && o != isa.JMP:
			// Keep direct targets inside the image: target = pc+1+Imm.
			ins.Imm = int64(r.next()%n) - int64(i) - 1
		case ins.IsMem():
			ins.Imm = int64(r.next() % 512)
		default:
			ins.Imm = int64(r.next()%1024) - 512
		}
		code[i] = ins
	}
	// A HALT floor so most paths terminate quickly enough.
	code[n-1] = isa.Instr{Op: isa.HALT}
	return &isa.Program{
		Name: "diff",
		Code: code,
		Data: map[uint64][]byte{0: {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
	}
}

// testCorrupt is a deterministic corruption hook exercising every
// corruption point's ordering.
func testCorrupt(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
	if seq%7 == 3 {
		return v ^ (1 << (uint(point) + uint(pc%8)))
	}
	return v
}

func snapshotBytes(t *vm.Thread) []byte {
	s := snap.NewEncoder(nil)
	t.Snap(s)
	return s.Finish()
}

func newDiffThread(prog *isa.Program, corrupt vm.CorruptFunc) *vm.Thread {
	mem := vm.NewMemory()
	vm.Load(prog, mem)
	th := vm.NewThread(0, prog, mem)
	th.Tolerant = true
	th.Corrupt = corrupt
	th.IORead = func(addr uint64) uint64 { return addr * 0x9E3779B97F4A7C15 }
	return th
}

func compareOutcomes(t *testing.T, label string, step int, want, got vm.Outcome) {
	t.Helper()
	if want != got {
		t.Fatalf("%s: step %d: outcome diverged\nswitch:   %+v\nthreaded: %+v", label, step, want, got)
	}
}

func compareState(t *testing.T, label string, step int, oracle, subject *vm.Thread) {
	t.Helper()
	if oracle.PC != subject.PC || oracle.Seq != subject.Seq ||
		oracle.Halted != subject.Halted || oracle.Trapped != subject.Trapped ||
		oracle.IntReg != subject.IntReg || oracle.FPReg != subject.FPReg {
		t.Fatalf("%s: step %d: architectural state diverged", label, step)
	}
}

// TestThreadedMatchesSwitch runs, for every opcode, random programs under
// the threaded handler table and the decode switch in lockstep, with and
// without a corruption hook, and requires identical outcomes and
// architectural state at every step plus byte-identical final snapshots.
func TestThreadedMatchesSwitch(t *testing.T) {
	for _, op := range allOps() {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			t.Parallel()
			for variant, corrupt := range map[string]vm.CorruptFunc{"clean": nil, "corrupt": testCorrupt} {
				for seed := uint64(1); seed <= 8; seed++ {
					prog := randProgram(seed*977+uint64(op), op)
					oracle := newDiffThread(prog, corrupt)
					subject := newDiffThread(prog, corrupt)
					label := op.String() + "/" + variant
					for step := 0; step < 3000; step++ {
						a := vmdiff.SwitchStep(oracle)
						b := subject.Step()
						compareOutcomes(t, label, step, a, b)
						compareState(t, label, step, oracle, subject)
						if oracle.Halted {
							break
						}
					}
					if wantSnap, gotSnap := snapshotBytes(oracle), snapshotBytes(subject); string(wantSnap) != string(gotSnap) {
						t.Fatalf("%s: final snapshots differ (%d vs %d bytes)", label, len(wantSnap), len(gotSnap))
					}
				}
			}
		})
	}
}

// TestTrapOutcome is the regression for the tolerant PC-overrun marker:
// both dispatchers must report the overrunning step with Trap set, Seq
// frozen, and every subsequent no-op step still carrying Trap; the
// intolerant path must still panic.
func TestTrapOutcome(t *testing.T) {
	// An indirect jump to PC 99 leaves the 2-instruction image.
	prog := &isa.Program{Name: "trap", Code: []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 99},
		{Op: isa.JMP, Rd: isa.ZeroReg, Ra: 1},
	}}
	for _, d := range []struct {
		name string
		step func(*vm.Thread) vm.Outcome
	}{
		{"threaded", (*vm.Thread).Step},
		{"switch", vmdiff.SwitchStep},
	} {
		mem := vm.NewMemory()
		th := vm.NewThread(0, prog, mem)
		th.Tolerant = true
		d.step(th) // LDI
		d.step(th) // JMP to 99
		out := d.step(th)
		if !out.Halted || !out.Trap || out.PC != 99 || out.Seq != 2 {
			t.Fatalf("%s: trap outcome = %+v, want Halted+Trap at PC 99 Seq 2", d.name, out)
		}
		if !th.Halted || !th.Trapped || th.Seq != 2 {
			t.Fatalf("%s: trap state = halted %v trapped %v seq %d", d.name, th.Halted, th.Trapped, th.Seq)
		}
		again := d.step(th)
		if !again.Halted || !again.Trap || again.Seq != 2 {
			t.Fatalf("%s: post-trap no-op outcome = %+v, want Halted+Trap Seq 2", d.name, again)
		}
		// A normal HALT must not be marked as a trap.
		hm := vm.NewMemory()
		ht := vm.NewThread(0, &isa.Program{Name: "halt", Code: []isa.Instr{{Op: isa.HALT}}}, hm)
		if out := d.step(ht); out.Trap || !out.Halted || ht.Trapped {
			t.Fatalf("%s: HALT outcome = %+v trapped=%v, want clean halt", d.name, out, ht.Trapped)
		}
		if out := d.step(ht); out.Trap || !out.Halted {
			t.Fatalf("%s: post-HALT no-op = %+v, want clean halt", d.name, out)
		}

		// Intolerant overrun still panics.
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: intolerant PC overrun did not panic", d.name)
				}
			}()
			pm := vm.NewMemory()
			pt := vm.NewThread(0, prog, pm)
			d.step(pt)
			d.step(pt)
			d.step(pt)
		}()
	}
}

// TestTrapSnapshotRoundTrip: Trapped must survive snapshot/restore so a
// restored machine reports post-trap no-op outcomes identically.
func TestTrapSnapshotRoundTrip(t *testing.T) {
	prog := &isa.Program{Name: "trap", Code: []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 50},
		{Op: isa.JMP, Rd: isa.ZeroReg, Ra: 1},
	}}
	mem := vm.NewMemory()
	th := vm.NewThread(0, prog, mem)
	th.Tolerant = true
	th.Run(3)
	if !th.Trapped {
		t.Fatal("setup: thread did not trap")
	}
	b := snapshotBytes(th)
	s, err := snap.NewDecoder(b)
	if err != nil {
		t.Fatal(err)
	}
	mem2 := vm.NewMemory()
	th2 := vm.NewThread(0, prog, mem2)
	th2.Snap(s)
	if err := s.Done(); err != nil {
		t.Fatal(err)
	}
	if !th2.Trapped {
		t.Fatal("Trapped lost across snapshot/restore")
	}
	if out := th2.Step(); !out.Trap {
		t.Fatalf("restored post-trap outcome = %+v, want Trap", out)
	}
}
