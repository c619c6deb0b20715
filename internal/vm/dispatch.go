package vm

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Threaded-code dispatch for the functional engine. Step's original
// interpreter decodes its operands on every dynamic instruction: a giant
// switch over the opcode plus per-step calls into the Instr predicate
// methods (HasDest, IsCondBranch, IsStore, ...) in the shared tail. On the
// campaign-replay, metamorphic-verification, and characterisation paths
// that re-decode is the dominant cost, because the same static instruction
// executes thousands of times.
//
// buildOps compiles a program once into a per-PC handler table: each entry
// is a closure specialised for the instruction at that PC (operands,
// immediate, branch target, and the shared-tail decisions are resolved at
// build time), so a step is one indirect call with no per-step decode. The
// semantic core — value functions and branch predicates — is defined once
// below and shared with the SoA batch engine (batch.go), so the scalar and
// batched threaded paths cannot drift apart. The original switch
// interpreter lives on as the differential oracle in internal/vmdiff, and
// the vm and vmdiff test batteries check the compiled handlers against it
// exhaustively.

// shape classifies an instruction by the handler skeleton it compiles to.
type shape uint8

const (
	shNop     shape = iota // NOP, MB
	shALU                  // pure compute with a register destination
	shLoad                 // LDQ, FLDQ, LDB
	shStore                // STQ, FSTQ, STB
	shLoadIO               // LDIO
	shStoreIO              // STIO
	shBR                   // BR
	shCondBr               // BEQ..BLE
	shJSR                  // JSR
	shJMP                  // JMP
	shHalt                 // HALT
)

// sem is one instruction's decoded semantics: everything a handler
// specialiser needs, resolved once at table-build time.
type sem struct {
	ins   isa.Instr
	shape shape

	// shALU operand routing: a from the FP or int file (or absent), b from
	// the FP file, the int file, or the immediate.
	aFP, bFP, bImm, noA, noB bool
	fn                       func(a, b uint64) uint64
	destFP                   bool

	// shCondBr predicate over the Ra value.
	cond func(a uint64) bool

	// Memory access width and routing.
	size   int
	srcFP  bool // store data read from the FP file (FSTQ)
	byteOp bool // 1-byte access (LDB/STB)
}

// Value functions and branch predicates: the single statement of each
// opcode's computation for the threaded paths. Immediate variants reuse
// their register-register function with b bound to the immediate.
func fnAdd(a, b uint64) uint64    { return a + b }
func fnSub(a, b uint64) uint64    { return a - b }
func fnMul(a, b uint64) uint64    { return a * b }
func fnAnd(a, b uint64) uint64    { return a & b }
func fnOr(a, b uint64) uint64     { return a | b }
func fnXor(a, b uint64) uint64    { return a ^ b }
func fnSll(a, b uint64) uint64    { return a << (b & 63) }
func fnSrl(a, b uint64) uint64    { return a >> (b & 63) }
func fnSra(a, b uint64) uint64    { return uint64(int64(a) >> (b & 63)) }
func fnCmpEq(a, b uint64) uint64  { return boolBits(a == b) }
func fnCmpLt(a, b uint64) uint64  { return boolBits(int64(a) < int64(b)) }
func fnCmpLe(a, b uint64) uint64  { return boolBits(int64(a) <= int64(b)) }
func fnCmpUlt(a, b uint64) uint64 { return boolBits(a < b) }
func fnLdi(_, b uint64) uint64    { return b }

func fnDiv(a, b uint64) uint64 {
	if int64(b) == 0 {
		return 0
	}
	return uint64(int64(a) / int64(b))
}

func fnMod(a, b uint64) uint64 {
	if int64(b) == 0 {
		return 0
	}
	return uint64(int64(a) % int64(b))
}

func fnFAdd(a, b uint64) uint64   { return bits(f64(a) + f64(b)) }
func fnFSub(a, b uint64) uint64   { return bits(f64(a) - f64(b)) }
func fnFMul(a, b uint64) uint64   { return bits(f64(a) * f64(b)) }
func fnFDiv(a, b uint64) uint64   { return bits(f64(a) / f64(b)) }
func fnFSqrt(a, _ uint64) uint64  { return bits(math.Sqrt(f64(a))) }
func fnFNeg(a, _ uint64) uint64   { return bits(-f64(a)) }
func fnFCmpEq(a, b uint64) uint64 { return boolBits(f64(a) == f64(b)) }
func fnFCmpLt(a, b uint64) uint64 { return boolBits(f64(a) < f64(b)) }
func fnFCmpLe(a, b uint64) uint64 { return boolBits(f64(a) <= f64(b)) }
func fnCvtQF(a, _ uint64) uint64  { return bits(float64(int64(a))) }
func fnMove(a, _ uint64) uint64   { return a }

func fnCvtFQ(a, _ uint64) uint64 {
	f := f64(a)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return uint64(int64(f))
}

func condBeq(a uint64) bool { return a == 0 }
func condBne(a uint64) bool { return a != 0 }
func condBlt(a uint64) bool { return int64(a) < 0 }
func condBge(a uint64) bool { return int64(a) >= 0 }
func condBgt(a uint64) bool { return int64(a) > 0 }
func condBle(a uint64) bool { return int64(a) <= 0 }

// semOf decodes one instruction's semantics. It is the threaded engine's
// single decode point; both the scalar and the batch specialiser consume
// its output.
func semOf(ins isa.Instr) sem {
	s := sem{ins: ins, destFP: ins.DestIsFP(), size: ins.MemBytes()}
	intOp := func(fn func(a, b uint64) uint64) {
		s.shape, s.fn = shALU, fn
	}
	immOp := func(fn func(a, b uint64) uint64) {
		s.shape, s.fn, s.bImm = shALU, fn, true
	}
	fpOp := func(fn func(a, b uint64) uint64) {
		s.shape, s.fn, s.aFP, s.bFP = shALU, fn, true, true
	}
	fp1 := func(fn func(a, b uint64) uint64) {
		s.shape, s.fn, s.aFP, s.noB = shALU, fn, true, true
	}
	int1 := func(fn func(a, b uint64) uint64) {
		s.shape, s.fn, s.noB = shALU, fn, true
	}
	cond := func(fn func(a uint64) bool) {
		s.shape, s.cond = shCondBr, fn
	}
	switch ins.Op {
	case isa.NOP, isa.MB:
		s.shape = shNop
	case isa.HALT:
		s.shape = shHalt

	case isa.ADD:
		intOp(fnAdd)
	case isa.SUB:
		intOp(fnSub)
	case isa.MUL:
		intOp(fnMul)
	case isa.DIV:
		intOp(fnDiv)
	case isa.MOD:
		intOp(fnMod)
	case isa.AND:
		intOp(fnAnd)
	case isa.OR:
		intOp(fnOr)
	case isa.XOR:
		intOp(fnXor)
	case isa.SLL:
		intOp(fnSll)
	case isa.SRL:
		intOp(fnSrl)
	case isa.SRA:
		intOp(fnSra)
	case isa.CMPEQ:
		intOp(fnCmpEq)
	case isa.CMPLT:
		intOp(fnCmpLt)
	case isa.CMPLE:
		intOp(fnCmpLe)
	case isa.CMPULT:
		intOp(fnCmpUlt)

	case isa.LDI:
		immOp(fnLdi)
		s.noA = true
	case isa.ADDI:
		immOp(fnAdd)
	case isa.MULI:
		immOp(fnMul)
	case isa.ANDI:
		immOp(fnAnd)
	case isa.ORI:
		immOp(fnOr)
	case isa.XORI:
		immOp(fnXor)
	case isa.SLLI:
		immOp(fnSll)
	case isa.SRLI:
		immOp(fnSrl)
	case isa.SRAI:
		immOp(fnSra)
	case isa.CMPEQI:
		immOp(fnCmpEq)
	case isa.CMPLTI:
		immOp(fnCmpLt)

	case isa.LDIO:
		s.shape = shLoadIO
	case isa.STIO:
		s.shape = shStoreIO
	case isa.LDQ, isa.FLDQ:
		s.shape = shLoad
	case isa.LDB:
		s.shape, s.byteOp = shLoad, true
	case isa.STQ:
		s.shape = shStore
	case isa.FSTQ:
		s.shape, s.srcFP = shStore, true
	case isa.STB:
		s.shape, s.byteOp = shStore, true

	case isa.FADD:
		fpOp(fnFAdd)
	case isa.FSUB:
		fpOp(fnFSub)
	case isa.FMUL:
		fpOp(fnFMul)
	case isa.FDIV:
		fpOp(fnFDiv)
	case isa.FSQRT:
		fp1(fnFSqrt)
	case isa.FNEG:
		fp1(fnFNeg)
	case isa.FCMPEQ:
		fpOp(fnFCmpEq)
	case isa.FCMPLT:
		fpOp(fnFCmpLt)
	case isa.FCMPLE:
		fpOp(fnFCmpLe)
	case isa.CVTQF:
		int1(fnCvtQF)
	case isa.CVTFQ:
		fp1(fnCvtFQ)
	case isa.ITOF:
		int1(fnMove)
	case isa.FTOI:
		fp1(fnMove)

	case isa.BR:
		s.shape = shBR
	case isa.BEQ:
		cond(condBeq)
	case isa.BNE:
		cond(condBne)
	case isa.BLT:
		cond(condBlt)
	case isa.BGE:
		cond(condBge)
	case isa.BGT:
		cond(condBgt)
	case isa.BLE:
		cond(condBle)
	case isa.JSR:
		s.shape = shJSR
	case isa.JMP:
		s.shape = shJMP

	default:
		panic(fmt.Sprintf("vm: unimplemented opcode %v", ins.Op))
	}
	return s
}

// stepFn is one compiled scalar handler: it executes the instruction at
// its PC against t, fills out, and advances PC/Seq — the whole of Step for
// that instruction.
type stepFn func(t *Thread, out *Outcome)

// buildOps compiles prog into the scalar per-PC handler table.
func buildOps(prog *isa.Program) []stepFn {
	ops := make([]stepFn, len(prog.Code))
	for pc := range prog.Code {
		ops[pc] = scalarFn(semOf(prog.Code[pc]), uint64(pc))
	}
	return ops
}

// scalarFn specialises one sem into a scalar handler. Every closure's
// captures are per-PC constants, so its internal branches are perfectly
// predictable; the byte-for-byte contract with stepSwitch (Outcome fields,
// corruption-point order, Seq/PC advance) is gated by the differential
// tests.
func scalarFn(s sem, pc uint64) stepFn {
	ins := s.ins
	next := pc + 1
	switch s.shape {
	case shNop:
		return func(t *Thread, out *Outcome) {
			*out = Outcome{Seq: t.Seq, PC: pc, Instr: ins, NextPC: next}
			t.PC = next
			t.Seq++
		}

	case shHalt:
		return func(t *Thread, out *Outcome) {
			*out = Outcome{Seq: t.Seq, PC: pc, Instr: ins, NextPC: next, Halted: true}
			t.Halted = true
			t.Seq++
		}

	case shALU:
		fn, ra, rb, rd := s.fn, ins.Ra, ins.Rb, ins.Rd
		aFP, bFP, bImm, noA, noB, destFP := s.aFP, s.bFP, s.bImm, s.noA, s.noB, s.destFP
		imm := uint64(ins.Imm)
		return func(t *Thread, out *Outcome) {
			var a, b uint64
			if !noA {
				if aFP {
					a = t.readFP(ra)
				} else {
					a = t.readInt(ra)
				}
			}
			if bImm {
				b = imm
			} else if !noB {
				if bFP {
					b = t.readFP(rb)
				} else {
					b = t.readInt(rb)
				}
			}
			v := t.corrupt(PointResult, pc, fn(a, b))
			if destFP {
				t.writeFP(rd, v)
			} else {
				t.writeInt(rd, v)
			}
			*out = Outcome{Seq: t.Seq, PC: pc, Instr: ins, NextPC: next, DestVal: v}
			t.PC = next
			t.Seq++
		}

	case shLoad:
		ra, rd := ins.Ra, ins.Rd
		imm := uint64(ins.Imm)
		byteOp, destFP, size := s.byteOp, s.destFP, s.size
		return func(t *Thread, out *Outcome) {
			addr := t.readInt(ra) + imm
			var v uint64
			if byteOp {
				v = uint64(t.Mem.Byte(addr))
			} else {
				v = t.Mem.Read64(addr)
			}
			v = t.corrupt(PointLoadValue, pc, v)
			v = t.corrupt(PointResult, pc, v)
			if destFP {
				t.writeFP(rd, v)
			} else {
				t.writeInt(rd, v)
			}
			*out = Outcome{Seq: t.Seq, PC: pc, Instr: ins, NextPC: next, Addr: addr, Size: size, Value: v, DestVal: v}
			t.PC = next
			t.Seq++
		}

	case shLoadIO:
		ra, rd := ins.Ra, ins.Rd
		imm := uint64(ins.Imm)
		size := s.size
		return func(t *Thread, out *Outcome) {
			addr := t.readInt(ra) + imm
			var v uint64
			if t.IORead != nil {
				v = t.IORead(addr)
			}
			v = t.corrupt(PointLoadValue, pc, v)
			v = t.corrupt(PointResult, pc, v)
			t.writeInt(rd, v)
			*out = Outcome{Seq: t.Seq, PC: pc, Instr: ins, NextPC: next, Addr: addr, Size: size, Value: v, DestVal: v}
			t.PC = next
			t.Seq++
		}

	case shStore, shStoreIO:
		ra, rd := ins.Ra, ins.Rd
		imm := uint64(ins.Imm)
		srcFP, byteOp, size := s.srcFP, s.byteOp, s.size
		cached := s.shape == shStore
		return func(t *Thread, out *Outcome) {
			addr := t.corrupt(PointStoreAddr, pc, t.readInt(ra)+imm)
			var v uint64
			switch {
			case srcFP:
				v = t.readFP(rd)
			case byteOp:
				v = t.readInt(rd) & 0xff
			default:
				v = t.readInt(rd)
			}
			v = t.corrupt(PointStoreData, pc, v)
			if cached {
				t.Mem.Store(addr, v, size, t.Seq)
			}
			*out = Outcome{Seq: t.Seq, PC: pc, Instr: ins, NextPC: next, Addr: addr, Size: size, Value: v}
			t.PC = next
			t.Seq++
		}

	case shBR:
		target := ins.BranchTarget(pc)
		return func(t *Thread, out *Outcome) {
			*out = Outcome{Seq: t.Seq, PC: pc, Instr: ins, NextPC: target, Taken: true}
			t.PC = target
			t.Seq++
		}

	case shCondBr:
		cond, ra := s.cond, ins.Ra
		target := ins.BranchTarget(pc)
		return func(t *Thread, out *Outcome) {
			npc := next
			taken := cond(t.readInt(ra))
			if taken {
				npc = target
			}
			*out = Outcome{Seq: t.Seq, PC: pc, Instr: ins, NextPC: npc, Taken: taken}
			t.PC = npc
			t.Seq++
		}

	case shJSR:
		rd := ins.Rd
		target := ins.BranchTarget(pc)
		return func(t *Thread, out *Outcome) {
			link := t.corrupt(PointResult, pc, next)
			t.writeInt(rd, link)
			*out = Outcome{Seq: t.Seq, PC: pc, Instr: ins, NextPC: target, Taken: true, DestVal: link}
			t.PC = target
			t.Seq++
		}

	case shJMP:
		ra, rd := ins.Ra, ins.Rd
		return func(t *Thread, out *Outcome) {
			// Read the jump target before the link writeback: rd may alias
			// ra, and the switch oracle computes NextPC from the pre-link
			// register value.
			npc := t.readInt(ra)
			link := t.corrupt(PointResult, pc, next)
			t.writeInt(rd, link)
			*out = Outcome{Seq: t.Seq, PC: pc, Instr: ins, NextPC: npc, Taken: true, DestVal: link}
			t.PC = npc
			t.Seq++
		}
	}
	panic(fmt.Sprintf("vm: no handler shape for opcode %v", s.ins.Op))
}
