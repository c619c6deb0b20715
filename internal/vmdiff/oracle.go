package vmdiff

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/vm"
)

// SwitchStep executes the instruction at t's PC with the original
// decode-per-step interpreter — one switch over the opcode and the shared
// writeback tail re-decoded on every dynamic instruction — and returns its
// outcome. It is the differential oracle for the functional engine's
// predecoded handler tables (vm.Thread.Step) and batched lanes (vm.Batch):
// it reads and writes only t's exported architectural state, so an oracle
// thread is an ordinary vm.NewThread stepped through this function instead
// of its own Step. Like Step it returns a no-op outcome for a halted
// thread, and a PC outside the code image traps a Tolerant thread and
// panics otherwise.
func SwitchStep(t *vm.Thread) vm.Outcome {
	if t.Halted {
		return vm.Outcome{Seq: t.Seq, PC: t.PC, Instr: isa.Instr{Op: isa.HALT}, NextPC: t.PC, Halted: true, Trap: t.Trapped}
	}
	if t.PC >= uint64(len(t.Prog.Code)) {
		if t.Tolerant {
			t.Halted = true
			t.Trapped = true
			return vm.Outcome{Seq: t.Seq, PC: t.PC, Instr: isa.Instr{Op: isa.HALT}, NextPC: t.PC, Halted: true, Trap: true}
		}
		panic(fmt.Sprintf("vmdiff: thread %d PC %d outside %q code (len %d)",
			t.ID, t.PC, t.Prog.Name, len(t.Prog.Code)))
	}
	var out vm.Outcome
	stepSwitch(t, &out)
	return out
}

func stepSwitch(t *vm.Thread, out *vm.Outcome) {
	ins := t.Prog.Code[t.PC]
	*out = vm.Outcome{Seq: t.Seq, PC: t.PC, Instr: ins, NextPC: t.PC + 1}

	switch ins.Op {
	case isa.NOP:

	// Integer ALU.
	case isa.ADD:
		out.DestVal = readInt(t, ins.Ra) + readInt(t, ins.Rb)
	case isa.SUB:
		out.DestVal = readInt(t, ins.Ra) - readInt(t, ins.Rb)
	case isa.MUL:
		out.DestVal = readInt(t, ins.Ra) * readInt(t, ins.Rb)
	case isa.DIV:
		d := int64(readInt(t, ins.Rb))
		if d == 0 {
			out.DestVal = 0
		} else {
			out.DestVal = uint64(int64(readInt(t, ins.Ra)) / d)
		}
	case isa.MOD:
		d := int64(readInt(t, ins.Rb))
		if d == 0 {
			out.DestVal = 0
		} else {
			out.DestVal = uint64(int64(readInt(t, ins.Ra)) % d)
		}
	case isa.AND:
		out.DestVal = readInt(t, ins.Ra) & readInt(t, ins.Rb)
	case isa.OR:
		out.DestVal = readInt(t, ins.Ra) | readInt(t, ins.Rb)
	case isa.XOR:
		out.DestVal = readInt(t, ins.Ra) ^ readInt(t, ins.Rb)
	case isa.SLL:
		out.DestVal = readInt(t, ins.Ra) << (readInt(t, ins.Rb) & 63)
	case isa.SRL:
		out.DestVal = readInt(t, ins.Ra) >> (readInt(t, ins.Rb) & 63)
	case isa.SRA:
		out.DestVal = uint64(int64(readInt(t, ins.Ra)) >> (readInt(t, ins.Rb) & 63))
	case isa.CMPEQ:
		out.DestVal = boolBits(readInt(t, ins.Ra) == readInt(t, ins.Rb))
	case isa.CMPLT:
		out.DestVal = boolBits(int64(readInt(t, ins.Ra)) < int64(readInt(t, ins.Rb)))
	case isa.CMPLE:
		out.DestVal = boolBits(int64(readInt(t, ins.Ra)) <= int64(readInt(t, ins.Rb)))
	case isa.CMPULT:
		out.DestVal = boolBits(readInt(t, ins.Ra) < readInt(t, ins.Rb))

	// Integer ALU immediate.
	case isa.LDI:
		out.DestVal = uint64(ins.Imm)
	case isa.ADDI:
		out.DestVal = readInt(t, ins.Ra) + uint64(ins.Imm)
	case isa.MULI:
		out.DestVal = readInt(t, ins.Ra) * uint64(ins.Imm)
	case isa.ANDI:
		out.DestVal = readInt(t, ins.Ra) & uint64(ins.Imm)
	case isa.ORI:
		out.DestVal = readInt(t, ins.Ra) | uint64(ins.Imm)
	case isa.XORI:
		out.DestVal = readInt(t, ins.Ra) ^ uint64(ins.Imm)
	case isa.SLLI:
		out.DestVal = readInt(t, ins.Ra) << (uint64(ins.Imm) & 63)
	case isa.SRLI:
		out.DestVal = readInt(t, ins.Ra) >> (uint64(ins.Imm) & 63)
	case isa.SRAI:
		out.DestVal = uint64(int64(readInt(t, ins.Ra)) >> (uint64(ins.Imm) & 63))
	case isa.CMPEQI:
		out.DestVal = boolBits(readInt(t, ins.Ra) == uint64(ins.Imm))
	case isa.CMPLTI:
		out.DestVal = boolBits(int64(readInt(t, ins.Ra)) < ins.Imm)

	// Uncached I/O. The device read is side-effecting and happens here
	// (in program order, exactly once per dynamic instance); the device
	// WRITE is deferred to the machine (performed once, after output
	// comparison), so STIO only computes its address and data.
	case isa.LDIO:
		out.Addr = readInt(t, ins.Ra) + uint64(ins.Imm)
		out.Size = 8
		var v uint64
		if t.IORead != nil {
			v = t.IORead(out.Addr)
		}
		out.Value = corrupt(t, vm.PointLoadValue, t.PC, v)
		out.DestVal = out.Value
	case isa.STIO:
		out.Addr = corrupt(t, vm.PointStoreAddr, t.PC, readInt(t, ins.Ra)+uint64(ins.Imm))
		out.Size = 8
		out.Value = corrupt(t, vm.PointStoreData, t.PC, readInt(t, ins.Rd))

	// Memory.
	case isa.LDQ, isa.FLDQ:
		out.Addr = readInt(t, ins.Ra) + uint64(ins.Imm)
		out.Size = 8
		out.Value = corrupt(t, vm.PointLoadValue, t.PC, t.Mem.Read64(out.Addr))
		out.DestVal = out.Value
	case isa.LDB:
		out.Addr = readInt(t, ins.Ra) + uint64(ins.Imm)
		out.Size = 1
		out.Value = corrupt(t, vm.PointLoadValue, t.PC, uint64(t.Mem.Byte(out.Addr)))
		out.DestVal = out.Value
	case isa.STQ:
		out.Addr = corrupt(t, vm.PointStoreAddr, t.PC, readInt(t, ins.Ra)+uint64(ins.Imm))
		out.Size = 8
		out.Value = corrupt(t, vm.PointStoreData, t.PC, readInt(t, ins.Rd))
	case isa.FSTQ:
		out.Addr = corrupt(t, vm.PointStoreAddr, t.PC, readInt(t, ins.Ra)+uint64(ins.Imm))
		out.Size = 8
		out.Value = corrupt(t, vm.PointStoreData, t.PC, readFP(t, ins.Rd))
	case isa.STB:
		out.Addr = corrupt(t, vm.PointStoreAddr, t.PC, readInt(t, ins.Ra)+uint64(ins.Imm))
		out.Size = 1
		out.Value = corrupt(t, vm.PointStoreData, t.PC, readInt(t, ins.Rd)&0xff)

	// Floating point.
	case isa.FADD:
		out.DestVal = bits(f64(readFP(t, ins.Ra)) + f64(readFP(t, ins.Rb)))
	case isa.FSUB:
		out.DestVal = bits(f64(readFP(t, ins.Ra)) - f64(readFP(t, ins.Rb)))
	case isa.FMUL:
		out.DestVal = bits(f64(readFP(t, ins.Ra)) * f64(readFP(t, ins.Rb)))
	case isa.FDIV:
		out.DestVal = bits(f64(readFP(t, ins.Ra)) / f64(readFP(t, ins.Rb)))
	case isa.FSQRT:
		out.DestVal = bits(math.Sqrt(f64(readFP(t, ins.Ra))))
	case isa.FNEG:
		out.DestVal = bits(-f64(readFP(t, ins.Ra)))
	case isa.FCMPEQ:
		out.DestVal = boolBits(f64(readFP(t, ins.Ra)) == f64(readFP(t, ins.Rb)))
	case isa.FCMPLT:
		out.DestVal = boolBits(f64(readFP(t, ins.Ra)) < f64(readFP(t, ins.Rb)))
	case isa.FCMPLE:
		out.DestVal = boolBits(f64(readFP(t, ins.Ra)) <= f64(readFP(t, ins.Rb)))
	case isa.CVTQF:
		out.DestVal = bits(float64(int64(readInt(t, ins.Ra))))
	case isa.CVTFQ:
		f := f64(readFP(t, ins.Ra))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			out.DestVal = 0
		} else {
			out.DestVal = uint64(int64(f))
		}
	case isa.ITOF:
		out.DestVal = readInt(t, ins.Ra)
	case isa.FTOI:
		out.DestVal = readFP(t, ins.Ra)

	// Control.
	case isa.BR:
		out.Taken = true
		out.NextPC = ins.BranchTarget(t.PC)
	case isa.BEQ:
		out.Taken = readInt(t, ins.Ra) == 0
	case isa.BNE:
		out.Taken = readInt(t, ins.Ra) != 0
	case isa.BLT:
		out.Taken = int64(readInt(t, ins.Ra)) < 0
	case isa.BGE:
		out.Taken = int64(readInt(t, ins.Ra)) >= 0
	case isa.BGT:
		out.Taken = int64(readInt(t, ins.Ra)) > 0
	case isa.BLE:
		out.Taken = int64(readInt(t, ins.Ra)) <= 0
	case isa.JSR:
		out.Taken = true
		out.DestVal = t.PC + 1
		out.NextPC = ins.BranchTarget(t.PC)
	case isa.JMP:
		out.Taken = true
		out.DestVal = t.PC + 1
		out.NextPC = readInt(t, ins.Ra)

	case isa.MB:

	case isa.HALT:
		out.Halted = true

	default:
		panic(fmt.Sprintf("vmdiff: unimplemented opcode %v at pc=%d", ins.Op, t.PC))
	}

	if ins.IsCondBranch() && out.Taken {
		out.NextPC = ins.BranchTarget(t.PC)
	}

	// Apply the result corruption point and write back.
	if ins.HasDest() && !ins.IsStore() {
		out.DestVal = corrupt(t, vm.PointResult, t.PC, out.DestVal)
		if ins.DestIsFP() {
			writeFP(t, ins.Rd, out.DestVal)
		} else {
			writeInt(t, ins.Rd, out.DestVal)
		}
		if ins.IsLoad() {
			out.Value = out.DestVal
		}
	}

	// Stores become visible to this thread's own later loads immediately
	// (architecturally: store-queue forwarding). Uncached stores target
	// the device, not memory; the machine performs them at drain.
	if ins.IsStore() && !ins.IsUncached() {
		t.Mem.Store(out.Addr, out.Value, out.Size, out.Seq)
	}

	if out.Halted {
		t.Halted = true
	} else {
		t.PC = out.NextPC
	}
	t.Seq++
}

func readInt(t *vm.Thread, r isa.Reg) uint64 {
	if r == isa.ZeroReg {
		return 0
	}
	return t.IntReg[r]
}

func writeInt(t *vm.Thread, r isa.Reg, v uint64) {
	if r != isa.ZeroReg {
		t.IntReg[r] = v
	}
}

func readFP(t *vm.Thread, r isa.Reg) uint64 {
	if r == isa.ZeroReg {
		return 0
	}
	return t.FPReg[r]
}

func writeFP(t *vm.Thread, r isa.Reg, v uint64) {
	if r != isa.ZeroReg {
		t.FPReg[r] = v
	}
}

func corrupt(t *vm.Thread, p vm.CorruptPoint, pc uint64, v uint64) uint64 {
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
