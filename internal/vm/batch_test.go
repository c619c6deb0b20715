package vm_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/vmdiff"
)

// lockstep runs prog on an n-lane batch against n scalar switch oracles
// (vmdiff.Lockstep, which checks every lane against its oracle's outcome
// each round, here with the exhaustive every-round register sweep) for at
// most rounds rounds, failing the test at the first divergence.
func lockstep(t *testing.T, prog *isa.Program, n int, rounds uint64, corrupt func(lane int) vm.CorruptFunc) *vmdiff.Lockstep {
	t.Helper()
	l := vmdiff.NewLockstep(prog, n, vmdiff.Options{
		Tolerant: true,
		IORead:   func(addr uint64) uint64 { return addr ^ 0xABCD },
		Corrupt:  corrupt,
	})
	l.SweepEvery = 1
	if err := l.Run(rounds); err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	return l
}

// TestBatchMatchesScalar: a Batch over random programs — one per opcode,
// each forced to contain that opcode — must stay bit-equal to N
// independent scalar oracle threads after every lockstep round, with
// distinct per-lane corruption hooks driving the lanes apart. Every
// instruction's register write and store bytes are checked as it
// executes, so each column handler shape is held to the oracle at the
// instruction that goes wrong.
func TestBatchMatchesScalar(t *testing.T) {
	for i, op := range allOps() {
		seed := uint64(i + 1)
		prog := randProgram(seed*131071, op)
		corrupt := func(lane int) vm.CorruptFunc {
			if lane == 0 {
				return nil // lane 0 runs fault-free
			}
			salt := uint64(lane) * 0x9E37
			return func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
				if (seq+salt)%11 == 5 {
					return v ^ (salt << uint(point))
				}
				return v
			}
		}
		lockstep(t, prog, 8, 3000, corrupt)
	}
}

// TestBatchTrapParity: lanes that run off the code image must trap exactly
// like scalar tolerant threads — Halted+Trapped set, Seq frozen — and the
// intolerant batch must panic.
func TestBatchTrapParity(t *testing.T) {
	// Lane behaviour diverges on r1: LDI loads the lane-corrupted jump
	// target, so some lanes jump out of the image and trap.
	prog := &isa.Program{Name: "trap", Code: []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 2},
		{Op: isa.JMP, Rd: isa.ZeroReg, Ra: 1},
		{Op: isa.HALT},
	}}
	corrupt := func(lane int) vm.CorruptFunc {
		if lane%2 == 0 {
			return nil // even lanes halt cleanly at PC 2
		}
		return func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
			if point == vm.PointResult && pc == 0 {
				return 77 // odd lanes jump to 77 and trap
			}
			return v
		}
	}
	b := lockstep(t, prog, 6, 8, corrupt).Batch
	for lane := 0; lane < b.N; lane++ {
		wantTrap := lane%2 == 1
		if !b.Halted[lane] || b.Trapped[lane] != wantTrap {
			t.Fatalf("lane %d: halted %v trapped %v, want halted, trapped=%v",
				lane, b.Halted[lane], b.Trapped[lane], wantTrap)
		}
	}

	// Intolerant overrun panics with the lane in the message.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("intolerant batch PC overrun did not panic")
			}
		}()
		mem := vm.NewMemory()
		b := vm.NewBatch(prog, mem, 1)
		b.Corrupt[0] = corrupt(1)
		b.Run(8)
	}()
}

// storeLoop is an infinite store/load/branch kernel for the steady-state
// alloc gate: it keeps the overlay hot without ever halting.
func storeLoop() *isa.Program {
	return &isa.Program{Name: "storeloop", Code: []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 64},
		{Op: isa.STQ, Rd: 2, Ra: 1, Imm: 0},
		{Op: isa.LDQ, Rd: 3, Ra: 1, Imm: 0},
		{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 1},
		{Op: isa.BR, Imm: -4}, // back to the STQ
	}}
}

// TestBatchSteadyStateAllocs: the batched hot loop must allocate nothing
// per step once the overlays are warm.
func TestBatchSteadyStateAllocs(t *testing.T) {
	mem := vm.NewMemory()
	b := vm.NewBatch(storeLoop(), mem, 16)
	b.Run(64) // warm the overlay maps
	allocs := testing.AllocsPerRun(200, func() {
		b.Step()
	})
	if allocs != 0 {
		t.Fatalf("batched Step allocates %.2f per round in steady state, want 0", allocs)
	}
}
