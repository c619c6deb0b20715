package vm

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// CorruptPoint identifies where in an instruction's dataflow a fault
// injector may flip bits.
type CorruptPoint uint8

// Corruption points.
const (
	// PointResult is the value written to the destination register.
	PointResult CorruptPoint = iota
	// PointStoreData is the data value of a store.
	PointStoreData
	// PointStoreAddr is the effective address of a store.
	PointStoreAddr
	// PointLoadValue is the value returned by a load.
	PointLoadValue
)

// CorruptFunc lets a fault model perturb a value as an instruction executes.
// seq is the thread-local dynamic instruction number; the returned value
// replaces v. A nil CorruptFunc means fault-free execution.
type CorruptFunc func(point CorruptPoint, seq uint64, pc uint64, v uint64) uint64

// Outcome describes the architectural effect of one dynamically executed
// instruction; it is everything the timing model needs to charge cycles and
// everything the RMT machinery needs to replicate inputs and compare
// outputs.
type Outcome struct {
	Seq    uint64 // thread-local dynamic instruction number, from 0
	PC     uint64
	Instr  isa.Instr
	NextPC uint64

	// Taken is meaningful for conditional branches.
	Taken bool

	// Memory effects. For loads, Value is the loaded value; for stores,
	// Value is the store data. Addr/Size are zero for non-memory ops.
	Addr  uint64
	Size  int
	Value uint64

	// DestVal is the value written to the destination register (loads,
	// ALU, FP, JSR/JMP link). Valid only if Instr.HasDest().
	DestVal uint64

	Halted bool

	// Trap marks a tolerant halt: the PC left the code image (a corrupted
	// jump target under fault injection) and the thread halted in place
	// instead of panicking. Scalar and batched execution report it
	// identically: the overrunning step and every no-op step after it
	// carry Trap, and Seq does not advance.
	Trap bool
}

// IsStore reports whether the outcome is a store.
func (o *Outcome) IsStore() bool { return o.Instr.IsStore() }

// IsLoad reports whether the outcome is a load.
func (o *Outcome) IsLoad() bool { return o.Instr.IsLoad() }

// Thread is the architectural state of one hardware thread context: PC,
// integer and FP register files, and a store overlay onto the logical
// program's committed memory.
type Thread struct {
	// ID is the hardware thread context number (for diagnostics).
	ID int //rmtsnap:skip — identity fixed at construction
	// Prog is the program being executed.
	Prog *isa.Program //rmtsnap:skip — static code image, not machine state

	PC     uint64
	IntReg [isa.NumIntRegs]uint64
	FPReg  [isa.NumFPRegs]uint64

	// Mem is this thread's view: committed memory + private overlay.
	Mem *Overlay

	// Corrupt, when non-nil, is invoked at each corruption point.
	Corrupt CorruptFunc //rmtsnap:skip — injection hook, outside simulated state

	// Tolerant makes an out-of-range PC halt the thread instead of
	// panicking. Fault-injection runs set it: a corrupted jump target can
	// legitimately leave the code image, and the machine must survive to
	// flag the divergence rather than crash the simulator.
	Tolerant bool

	// IORead services uncached (LDIO) loads. Device reads are
	// side-effecting, so redundant configurations wire the leading copy to
	// the device and the trailing copy to a replication bridge. nil reads
	// as zero.
	IORead func(addr uint64) uint64 //rmtsnap:skip — device hook, outside simulated state

	// Seq counts dynamically executed instructions.
	Seq uint64

	Halted bool

	// Trapped records that Halted was set by a tolerant out-of-image PC
	// rather than a HALT instruction (see Outcome.Trap).
	Trapped bool

	// ops is the per-PC predecoded handler table Step dispatches through
	// (see dispatch.go).
	ops []stepFn //rmtsnap:skip — compiled view of Prog, rebuilt at construction

	// stepOut backs Step's by-value return: passing a stack variable's
	// address into the handler closures would make escape analysis
	// heap-allocate it per step.
	stepOut Outcome //rmtsnap:skip — scratch buffer, dead between steps
}

// NewThread creates a thread at the program entry with a fresh overlay over
// mem. The program's initial data image must already have been loaded into
// mem (see Load).
func NewThread(id int, prog *isa.Program, mem *Memory) *Thread {
	return &Thread{
		ID:   id,
		Prog: prog,
		PC:   prog.Entry,
		Mem:  NewOverlay(mem),
		ops:  buildOps(prog),
	}
}

// Load initialises mem with the program's data image.
func Load(prog *isa.Program, mem *Memory) {
	for addr, bytes := range prog.Data {
		mem.SetBytes(addr, bytes)
	}
}

func (t *Thread) readInt(r isa.Reg) uint64 {
	if r == isa.ZeroReg {
		return 0
	}
	return t.IntReg[r]
}

func (t *Thread) writeInt(r isa.Reg, v uint64) {
	if r != isa.ZeroReg {
		t.IntReg[r] = v
	}
}

func (t *Thread) readFP(r isa.Reg) uint64 {
	if r == isa.ZeroReg {
		return 0
	}
	return t.FPReg[r]
}

func (t *Thread) writeFP(r isa.Reg, v uint64) {
	if r != isa.ZeroReg {
		t.FPReg[r] = v
	}
}

func (t *Thread) corrupt(p CorruptPoint, pc uint64, v uint64) uint64 {
	if t.Corrupt == nil {
		return v
	}
	return t.Corrupt(p, t.Seq, pc, v)
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func bits(f float64) uint64   { return math.Float64bits(f) }
func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Step functionally executes the instruction at the current PC and advances
// architectural state. It panics if the PC is outside the program (programs
// are validated at build time, so this indicates a simulator bug) and
// returns a no-op outcome if the thread has halted. If Tolerant is set, an
// out-of-image PC halts the thread with Outcome.Trap instead of panicking.
func (t *Thread) Step() Outcome {
	t.StepInto(&t.stepOut)
	return t.stepOut
}

// StepInto is Step writing the outcome into out instead of returning it by
// value — the allocation- and copy-free form the pipeline and the
// characterisation replay use.
func (t *Thread) StepInto(out *Outcome) {
	if t.Halted {
		*out = Outcome{Seq: t.Seq, PC: t.PC, Instr: isa.Instr{Op: isa.HALT}, NextPC: t.PC, Halted: true, Trap: t.Trapped}
		return
	}
	if t.PC >= uint64(len(t.Prog.Code)) {
		if t.Tolerant {
			t.Halted = true
			t.Trapped = true
			*out = Outcome{Seq: t.Seq, PC: t.PC, Instr: isa.Instr{Op: isa.HALT}, NextPC: t.PC, Halted: true, Trap: true}
			return
		}
		panic(fmt.Sprintf("vm: thread %d PC %d outside %q code (len %d)",
			t.ID, t.PC, t.Prog.Name, len(t.Prog.Code)))
	}
	t.ops[t.PC](t, out)
}

// Interrupt redirects the thread to an interrupt handler, hardware-style:
// the resume PC is saved in R30 (the interrupt link register) and execution
// continues at handler. Handlers return with JMP through R30. Nested
// interrupts are the caller's responsibility to avoid (the machine layers
// schedule them far apart and never inside a handler).
func (t *Thread) Interrupt(handler uint64) {
	t.IntReg[30] = t.PC
	t.PC = handler
}

// Run executes up to n instructions or until HALT, returning the number
// executed. It is a convenience for tests and for functional (timing-free)
// validation of programs.
func (t *Thread) Run(n uint64) uint64 {
	var i uint64
	for ; i < n && !t.Halted; i++ {
		t.Step()
	}
	return i
}
