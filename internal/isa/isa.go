// Package isa defines the instruction set architecture executed by the
// simulator: a small, deterministic, Alpha-flavoured 64-bit RISC ISA with 32
// integer and 32 floating-point registers per thread (the 64 architectural
// registers per thread of the paper's Table 1).
//
// The ISA is intentionally simple — word-addressed instruction memory,
// byte-addressed data memory, register-register ALU ops, displacement
// addressing, PC-relative branches — but it is a real ISA: every instruction
// has full functional semantics (package vm), a binary encoding, an
// assembler (Builder) and a disassembler. All workloads in internal/program
// are written against it, and redundant-thread output comparison operates on
// the values it produces.
package isa

import "fmt"

// Reg names an architectural register. Integer registers are R0..R31 and
// floating-point registers are F0..F31. R31 and F31 always read as zero and
// ignore writes, following the Alpha convention.
type Reg uint8

// Integer register names.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31 // hardwired zero
)

// Floating-point register names. They share the Reg namespace with integer
// registers; FP opcodes interpret their operands as F-registers.
const (
	F0 Reg = iota
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
	F16
	F17
	F18
	F19
	F20
	F21
	F22
	F23
	F24
	F25
	F26
	F27
	F28
	F29
	F30
	F31 // hardwired zero
)

// NumIntRegs and NumFPRegs give the architectural register file sizes.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	// ZeroReg is the hardwired-zero register index in both files.
	ZeroReg = 31
)

// Op is an operation code.
type Op uint8

// Operation codes. The groups matter to the timing model: the pipeline maps
// each group onto a functional-unit class and latency.
const (
	NOP Op = iota

	// Integer register-register ALU.
	ADD
	SUB
	MUL
	DIV
	MOD
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	CMPEQ
	CMPLT
	CMPLE
	CMPULT

	// Integer register-immediate ALU.
	ADDI
	MULI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	CMPEQI
	CMPLTI
	LDI // rd = imm (sign-extended 32-bit)

	// Memory. Addresses are Ra + Imm.
	LDQ // rd = mem64[ra+imm]
	STQ // mem64[ra+imm] = rd
	LDB // rd = zext(mem8[ra+imm])
	STB // mem8[ra+imm] = rd & 0xff

	// Floating point. Operands are F-registers holding float64 bit
	// patterns; compare results are written to an F-register as 0/1 so
	// they can feed FBEQ/FBNE-style tests via FTOI.
	FADD
	FSUB
	FMUL
	FDIV
	FSQRT
	FNEG
	FCMPEQ
	FCMPLT
	FCMPLE
	CVTQF // fd = float64(int64 ra)   (ra is an integer register)
	CVTFQ // rd = int64(float64 fa)   (rd is an integer register)
	ITOF  // fd = bits(ra)            (raw move int -> fp)
	FTOI  // rd = bits(fa)            (raw move fp -> int)
	FLDQ  // fd = mem64[ra+imm] as float bits (ra integer)
	FSTQ  // mem64[ra+imm] = bits(fd)

	// Control. Branch displacements are in instruction words relative to
	// the next instruction: target = pc + 1 + imm.
	BR  // unconditional PC-relative branch
	BEQ // taken if ra == 0
	BNE // taken if ra != 0
	BLT // taken if int64(ra) < 0
	BGE // taken if int64(ra) >= 0
	BGT // taken if int64(ra) > 0
	BLE // taken if int64(ra) <= 0
	JSR // rd = pc + 1; pc = pc + 1 + imm (direct call)
	JMP // rd = pc + 1; pc = ra (indirect jump / return)

	// Uncached (memory-mapped I/O) accesses. Side-effecting: a device read
	// consumes device state, so redundant threads must replicate the value
	// rather than read twice; an uncached store is performed exactly once,
	// after output comparison. Addresses are Ra + Imm into the I/O space.
	LDIO // rd = io[ra+imm] (uncached, side-effecting, non-speculative)
	STIO // io[ra+imm] = rd (uncached, performed once, non-speculative)

	// Miscellaneous.
	MB   // memory barrier: retires only after all older stores drain
	HALT // stop the thread

	numOps // sentinel
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if name := opTable[o].Name; name != "" {
		return name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether the opcode is a defined operation.
func (o Op) Valid() bool { return o < numOps }

// Class buckets opcodes by the pipeline resource they consume.
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassLoad
	ClassStore
	ClassFPAdd // add/sub/compare/convert/moves
	ClassFPMul
	ClassFPDiv // div and sqrt
	ClassBranch
	ClassJump
	ClassBarrier
	ClassHalt
)

// Role is what one register field of an instruction (Rd, Ra or Rb) means
// to its opcode.
type Role uint8

// Register-field roles.
const (
	Unused Role = iota // the field is ignored
	IntSrc             // read from the integer file
	FPSrc              // read from the FP file
	IntDst             // written in the integer file
	FPDst              // written in the FP file
)

// Reads reports whether the field is a source.
func (r Role) Reads() bool { return r == IntSrc || r == FPSrc }

// Writes reports whether the field is the destination.
func (r Role) Writes() bool { return r == IntDst || r == FPDst }

// Flow is the set of places control can go after an instruction. HALT's
// is empty: nothing follows it.
type Flow uint8

// Control-flow facts.
const (
	// FallsThrough: execution can continue at pc+1.
	FallsThrough Flow = 1 << iota
	// Direct: control can transfer to BranchTarget(pc).
	Direct
	// Indirect: control transfers to the address held in Ra.
	Indirect
	// Link: the instruction writes its return address, pc+1, to Rd.
	Link
)

// OpInfo is one row of the opcode table: everything the simulator knows
// about an opcode apart from the value it computes, which package vm
// defines. Rename, issue wakeup, LVQ/RVQ replication, the program
// verifier, the ACE liveness analysis, the workload characteriser and the
// disassembler all read the operands and control flow from here.
type OpInfo struct {
	Name  string // mnemonic
	Class Class
	// Rd, Ra and Rb are the roles of the three register fields.
	Rd, Ra, Rb Role
	// Imm reports whether the immediate is an operand.
	Imm bool
	// Mem is the data access width in bytes, 0 for non-memory opcodes.
	Mem  uint8
	Flow Flow
}

// opTable is the one definition of every opcode, indexed by the whole
// uint8 range so that an undefined opcode reads the zero row: no name,
// ClassNop, no operands, no successor.
//
//rmtlint:allow sharedstate — read-only opcode table, written by no one
var opTable = [1 << 8]OpInfo{
	// mnemonic, class, Rd, Ra, Rb, imm, mem, flow
	NOP: {"nop", ClassNop, Unused, Unused, Unused, false, 0, FallsThrough},

	ADD:    {"add", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	SUB:    {"sub", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	MUL:    {"mul", ClassIntMul, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	DIV:    {"div", ClassIntDiv, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	MOD:    {"mod", ClassIntDiv, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	AND:    {"and", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	OR:     {"or", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	XOR:    {"xor", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	SLL:    {"sll", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	SRL:    {"srl", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	SRA:    {"sra", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	CMPEQ:  {"cmpeq", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	CMPLT:  {"cmplt", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	CMPLE:  {"cmple", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},
	CMPULT: {"cmpult", ClassIntALU, IntDst, IntSrc, IntSrc, false, 0, FallsThrough},

	ADDI:   {"addi", ClassIntALU, IntDst, IntSrc, Unused, true, 0, FallsThrough},
	MULI:   {"muli", ClassIntMul, IntDst, IntSrc, Unused, true, 0, FallsThrough},
	ANDI:   {"andi", ClassIntALU, IntDst, IntSrc, Unused, true, 0, FallsThrough},
	ORI:    {"ori", ClassIntALU, IntDst, IntSrc, Unused, true, 0, FallsThrough},
	XORI:   {"xori", ClassIntALU, IntDst, IntSrc, Unused, true, 0, FallsThrough},
	SLLI:   {"slli", ClassIntALU, IntDst, IntSrc, Unused, true, 0, FallsThrough},
	SRLI:   {"srli", ClassIntALU, IntDst, IntSrc, Unused, true, 0, FallsThrough},
	SRAI:   {"srai", ClassIntALU, IntDst, IntSrc, Unused, true, 0, FallsThrough},
	CMPEQI: {"cmpeqi", ClassIntALU, IntDst, IntSrc, Unused, true, 0, FallsThrough},
	CMPLTI: {"cmplti", ClassIntALU, IntDst, IntSrc, Unused, true, 0, FallsThrough},
	LDI:    {"ldi", ClassIntALU, IntDst, Unused, Unused, true, 0, FallsThrough},

	// A store's Rd is its data source.
	LDQ: {"ldq", ClassLoad, IntDst, IntSrc, Unused, true, 8, FallsThrough},
	STQ: {"stq", ClassStore, IntSrc, IntSrc, Unused, true, 8, FallsThrough},
	LDB: {"ldb", ClassLoad, IntDst, IntSrc, Unused, true, 1, FallsThrough},
	STB: {"stb", ClassStore, IntSrc, IntSrc, Unused, true, 1, FallsThrough},

	FADD:   {"fadd", ClassFPAdd, FPDst, FPSrc, FPSrc, false, 0, FallsThrough},
	FSUB:   {"fsub", ClassFPAdd, FPDst, FPSrc, FPSrc, false, 0, FallsThrough},
	FMUL:   {"fmul", ClassFPMul, FPDst, FPSrc, FPSrc, false, 0, FallsThrough},
	FDIV:   {"fdiv", ClassFPDiv, FPDst, FPSrc, FPSrc, false, 0, FallsThrough},
	FSQRT:  {"fsqrt", ClassFPDiv, FPDst, FPSrc, Unused, false, 0, FallsThrough},
	FNEG:   {"fneg", ClassFPAdd, FPDst, FPSrc, Unused, false, 0, FallsThrough},
	FCMPEQ: {"fcmpeq", ClassFPAdd, FPDst, FPSrc, FPSrc, false, 0, FallsThrough},
	FCMPLT: {"fcmplt", ClassFPAdd, FPDst, FPSrc, FPSrc, false, 0, FallsThrough},
	FCMPLE: {"fcmple", ClassFPAdd, FPDst, FPSrc, FPSrc, false, 0, FallsThrough},
	CVTQF:  {"cvtqf", ClassFPAdd, FPDst, IntSrc, Unused, false, 0, FallsThrough},
	CVTFQ:  {"cvtfq", ClassFPAdd, IntDst, FPSrc, Unused, false, 0, FallsThrough},
	ITOF:   {"itof", ClassFPAdd, FPDst, IntSrc, Unused, false, 0, FallsThrough},
	FTOI:   {"ftoi", ClassFPAdd, IntDst, FPSrc, Unused, false, 0, FallsThrough},
	FLDQ:   {"fldq", ClassLoad, FPDst, IntSrc, Unused, true, 8, FallsThrough},
	FSTQ:   {"fstq", ClassStore, FPSrc, IntSrc, Unused, true, 8, FallsThrough},

	BR:  {"br", ClassBranch, Unused, Unused, Unused, true, 0, Direct},
	BEQ: {"beq", ClassBranch, Unused, IntSrc, Unused, true, 0, FallsThrough | Direct},
	BNE: {"bne", ClassBranch, Unused, IntSrc, Unused, true, 0, FallsThrough | Direct},
	BLT: {"blt", ClassBranch, Unused, IntSrc, Unused, true, 0, FallsThrough | Direct},
	BGE: {"bge", ClassBranch, Unused, IntSrc, Unused, true, 0, FallsThrough | Direct},
	BGT: {"bgt", ClassBranch, Unused, IntSrc, Unused, true, 0, FallsThrough | Direct},
	BLE: {"ble", ClassBranch, Unused, IntSrc, Unused, true, 0, FallsThrough | Direct},
	JSR: {"jsr", ClassJump, IntDst, Unused, Unused, true, 0, Direct | Link},
	JMP: {"jmp", ClassJump, IntDst, IntSrc, Unused, false, 0, Indirect | Link},

	LDIO: {"ldio", ClassLoad, IntDst, IntSrc, Unused, true, 8, FallsThrough},
	STIO: {"stio", ClassStore, IntSrc, IntSrc, Unused, true, 8, FallsThrough},

	MB:   {"mb", ClassBarrier, Unused, Unused, Unused, false, 0, FallsThrough},
	HALT: {"halt", ClassHalt, Unused, Unused, Unused, false, 0, 0},
}

// Info returns the opcode's row of the opcode table.
func (o Op) Info() OpInfo { return opTable[o] }

// Instr is one decoded instruction. Its opcode's table row says which of
// Rd, Ra and Rb it reads or writes; Imm is the immediate / displacement.
type Instr struct {
	Op  Op
	Rd  Reg
	Ra  Reg
	Rb  Reg
	Imm int64
}

// Operand is one register an instruction reads.
type Operand struct {
	Reg Reg
	FP  bool // in the FP file
}

// Sources lists the registers the instruction reads, in field order Ra,
// Rb, Rd: srcs[:n]. The list is a fixed array, so listing does not
// allocate. The hardwired-zero registers are left out: reading R31 or F31
// observes the constant zero, not a value any instruction wrote.
func (i Instr) Sources() (srcs [3]Operand, n int) {
	row := &opTable[i.Op]
	for _, f := range [...]struct {
		reg  Reg
		role Role
	}{{i.Ra, row.Ra}, {i.Rb, row.Rb}, {i.Rd, row.Rd}} {
		if f.role.Reads() && f.reg != ZeroReg {
			srcs[n] = Operand{Reg: f.reg, FP: f.role == FPSrc}
			n++
		}
	}
	return srcs, n
}

// Flow returns where control can go after the instruction.
func (i Instr) Flow() Flow { return opTable[i.Op].Flow }

// IsBranch reports whether the instruction is any control transfer.
func (i Instr) IsBranch() bool {
	c := opTable[i.Op].Class
	return c == ClassBranch || c == ClassJump
}

// IsCondBranch reports whether the instruction is a conditional branch: a
// direct transfer that can also fall through.
func (i Instr) IsCondBranch() bool { return i.Flow()&(Direct|FallsThrough) == Direct|FallsThrough }

// IsMem reports whether the instruction accesses data memory.
func (i Instr) IsMem() bool { return opTable[i.Op].Mem != 0 }

// IsLoad reports whether the instruction is a load.
func (i Instr) IsLoad() bool { return opTable[i.Op].Class == ClassLoad }

// IsStore reports whether the instruction is a store.
func (i Instr) IsStore() bool { return opTable[i.Op].Class == ClassStore }

// IsFP reports whether the instruction executes on the FP units.
func (i Instr) IsFP() bool {
	c := opTable[i.Op].Class
	return c == ClassFPAdd || c == ClassFPMul || c == ClassFPDiv
}

// MemBytes returns the access width in bytes for memory instructions, 0
// otherwise.
func (i Instr) MemBytes() int { return int(opTable[i.Op].Mem) }

// IsUncached reports whether the instruction is an uncached I/O access.
func (i Instr) IsUncached() bool { return i.Op == LDIO || i.Op == STIO }

// HasDest reports whether the instruction writes an architectural register
// (Rd). A store's Rd is its data source, so stores have no destination.
func (i Instr) HasDest() bool { return opTable[i.Op].Rd.Writes() }

// DestDiscarded reports whether the instruction writes a register but the
// destination is the hardwired zero of its file (R31/F31), so the value is
// architecturally dropped — a JSR discarding its link, or a write kept only
// for its side effects. Such writes can never be ACE: no later instruction
// can observe them.
func (i Instr) DestDiscarded() bool { return i.HasDest() && i.Rd == ZeroReg }

// DestIsFP reports whether the destination register is in the FP file.
func (i Instr) DestIsFP() bool { return opTable[i.Op].Rd == FPDst }

// String disassembles the instruction in the syntax its table row implies.
// Registers print as r<n> in either file, and an FP op with one source
// still prints Rb.
func (i Instr) String() string {
	row := &opTable[i.Op]
	switch {
	case row.Mem != 0:
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rd, i.Imm, i.Ra)
	case row.Flow&Indirect != 0:
		return fmt.Sprintf("%s r%d, (r%d)", i.Op, i.Rd, i.Ra)
	case row.Flow&Direct != 0 && row.Rd.Writes(): // a call names its link
		return fmt.Sprintf("%s r%d, %+d", i.Op, i.Rd, i.Imm)
	case row.Flow&Direct != 0 && row.Ra.Reads(): // a conditional branch names its test
		return fmt.Sprintf("%s r%d, %+d", i.Op, i.Ra, i.Imm)
	case row.Flow&Direct != 0:
		return fmt.Sprintf("%s %+d", i.Op, i.Imm)
	case row.Rd == Unused:
		return i.Op.String()
	case row.Ra == Unused:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Rd, i.Imm)
	case row.Imm:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Ra, i.Imm)
	}
	return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Ra, i.Rb)
}

// Encoding layout, most significant byte first:
//
//	bits 63..56 opcode
//	bits 55..48 rd
//	bits 47..40 ra
//	bits 39..32 rb
//	bits 31..0  imm (two's-complement 32-bit)
//
// Word is the fixed 64-bit binary form of an instruction.
type Word uint64

// ErrBadEncoding is returned by Decode for malformed words and by Encode for
// out-of-range fields.
type ErrBadEncoding struct {
	Word   Word
	Reason string
}

func (e *ErrBadEncoding) Error() string {
	return fmt.Sprintf("isa: bad encoding %#016x: %s", uint64(e.Word), e.Reason)
}

// Encode packs an instruction into its binary word form. It returns an error
// if any field is out of range.
func Encode(i Instr) (Word, error) {
	if !i.Op.Valid() {
		return 0, &ErrBadEncoding{Reason: fmt.Sprintf("invalid opcode %d", i.Op)}
	}
	if i.Rd >= NumIntRegs || i.Ra >= NumIntRegs || i.Rb >= NumIntRegs {
		return 0, &ErrBadEncoding{Reason: "register out of range"}
	}
	if i.Imm < -(1<<31) || i.Imm > (1<<31)-1 {
		return 0, &ErrBadEncoding{Reason: fmt.Sprintf("immediate %d out of 32-bit range", i.Imm)}
	}
	w := uint64(i.Op)<<56 | uint64(i.Rd)<<48 | uint64(i.Ra)<<40 | uint64(i.Rb)<<32 |
		uint64(uint32(int32(i.Imm)))
	return Word(w), nil
}

// MustEncode is like Encode but panics on error; for use with known-good
// instructions (e.g., from the Builder, which validates as it goes).
func MustEncode(i Instr) Word {
	w, err := Encode(i)
	if err != nil {
		panic(err)
	}
	return w
}

// Decode unpacks a binary word into an instruction.
func Decode(w Word) (Instr, error) {
	i := Instr{
		Op:  Op(w >> 56),
		Rd:  Reg(w >> 48),
		Ra:  Reg(w >> 40),
		Rb:  Reg(w >> 32),
		Imm: int64(int32(uint32(w))),
	}
	if !i.Op.Valid() {
		return Instr{}, &ErrBadEncoding{Word: w, Reason: fmt.Sprintf("invalid opcode %d", uint8(w>>56))}
	}
	if i.Rd >= NumIntRegs || i.Ra >= NumIntRegs || i.Rb >= NumIntRegs {
		return Instr{}, &ErrBadEncoding{Word: w, Reason: "register out of range"}
	}
	return i, nil
}

// BranchTarget computes the target PC of a direct control transfer located
// at pc. It is meaningful only for opcodes whose Flow includes Direct.
func (i Instr) BranchTarget(pc uint64) uint64 {
	return uint64(int64(pc) + 1 + i.Imm)
}
