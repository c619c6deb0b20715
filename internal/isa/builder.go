package isa

import (
	"fmt"
	"sort"
)

// Program is an assembled instruction stream plus its initial data image.
// Instruction memory is word-addressed: the instruction at PC p is Code[p].
type Program struct {
	// Name identifies the workload (e.g., "gcc").
	Name string
	// Code is the instruction stream; entry point is PC 0 unless Entry is set.
	Code []Instr
	// Entry is the initial PC.
	Entry uint64
	// InterruptHandler is the PC interrupts vector to (0 = the program
	// takes no interrupts). Handlers return via JMP through R30, the
	// interrupt link register.
	InterruptHandler uint64
	// Data holds initial data memory contents keyed by byte address.
	Data map[uint64][]byte
}

// DataFootprint returns the total number of initialised data bytes.
func (p *Program) DataFootprint() int {
	n := 0
	for _, b := range p.Data {
		n += len(b)
	}
	return n
}

// Validate checks that all instructions encode and that every direct
// branch, the entry point and the interrupt handler land inside the code
// image.
func (p *Program) Validate() error {
	for pc, ins := range p.Code {
		if _, err := Encode(ins); err != nil {
			return fmt.Errorf("isa: %s pc=%d %v: %w", p.Name, pc, ins, err)
		}
		if ins.Flow()&Direct != 0 {
			t := ins.BranchTarget(uint64(pc))
			if t >= uint64(len(p.Code)) {
				return fmt.Errorf("isa: %s pc=%d %v: branch target %d outside code (len %d)",
					p.Name, pc, ins, t, len(p.Code))
			}
		}
	}
	if p.Entry >= uint64(len(p.Code)) {
		return fmt.Errorf("isa: %s entry %d outside code (len %d)", p.Name, p.Entry, len(p.Code))
	}
	if p.InterruptHandler >= uint64(len(p.Code)) {
		return fmt.Errorf("isa: %s interrupt handler %d outside code (len %d)",
			p.Name, p.InterruptHandler, len(p.Code))
	}
	return nil
}

// Builder assembles a Program. It supports forward references through named
// labels; Finish resolves them and validates the result.
//
//	b := isa.NewBuilder("loop-demo")
//	b.Ldi(isa.R1, 100)
//	b.Label("top")
//	b.Addi(isa.R1, isa.R1, -1)
//	b.Bne(isa.R1, "top")
//	b.Halt()
//	prog, err := b.Finish()
type Builder struct {
	name   string
	code   []Instr
	labels map[string]uint64
	// fixups maps code index -> label for PC-relative patching.
	fixups map[int]string
	data   map[uint64][]byte
	// labelTables are jump tables to materialise in data memory at Finish.
	labelTables []labelTable
	// handlerLabel, when set, names the interrupt handler.
	handlerLabel string
	err          error
}

type labelTable struct {
	addr   uint64
	labels []string
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]uint64),
		fixups: make(map[int]string),
		data:   make(map[uint64][]byte),
	}
}

// PC returns the address the next emitted instruction will occupy.
func (b *Builder) PC() uint64 { return uint64(len(b.code)) }

// InterruptHandlerAt declares the label interrupts vector to.
func (b *Builder) InterruptHandlerAt(label string) {
	b.handlerLabel = label
}

// Label defines a label at the current PC. Defining the same label twice is
// an error reported by Finish.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail(fmt.Errorf("isa: duplicate label %q", name))
		return
	}
	b.labels[name] = b.PC()
}

// Emit appends a raw instruction.
func (b *Builder) Emit(i Instr) {
	b.code = append(b.code, i)
}

// InitDataLabelTable writes the code addresses of the given labels as
// consecutive 64-bit words starting at addr (a jump table). Labels are
// resolved at Finish.
func (b *Builder) InitDataLabelTable(addr uint64, labels ...string) {
	cp := make([]string, len(labels))
	copy(cp, labels)
	b.labelTables = append(b.labelTables, labelTable{addr: addr, labels: cp})
}

// InitData sets initial data memory at addr. Overlapping regions are
// rejected by Finish.
func (b *Builder) InitData(addr uint64, bytes []byte) {
	cp := make([]byte, len(bytes))
	copy(cp, bytes)
	b.data[addr] = cp
}

// InitData64 writes a little-endian 64-bit value sequence starting at addr.
func (b *Builder) InitData64(addr uint64, vals ...uint64) {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		putLE64(buf[i*8:], v)
	}
	b.InitData(addr, buf)
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// --- ALU ---

// Add emits rd = ra + rb.
func (b *Builder) Add(rd, ra, rb Reg) { b.Emit(Instr{Op: ADD, Rd: rd, Ra: ra, Rb: rb}) }

// Sub emits rd = ra - rb.
func (b *Builder) Sub(rd, ra, rb Reg) { b.Emit(Instr{Op: SUB, Rd: rd, Ra: ra, Rb: rb}) }

// Mul emits rd = ra * rb.
func (b *Builder) Mul(rd, ra, rb Reg) { b.Emit(Instr{Op: MUL, Rd: rd, Ra: ra, Rb: rb}) }

// Div emits rd = int64(ra) / int64(rb) (0 if rb == 0).
func (b *Builder) Div(rd, ra, rb Reg) { b.Emit(Instr{Op: DIV, Rd: rd, Ra: ra, Rb: rb}) }

// Mod emits rd = int64(ra) % int64(rb) (0 if rb == 0).
func (b *Builder) Mod(rd, ra, rb Reg) { b.Emit(Instr{Op: MOD, Rd: rd, Ra: ra, Rb: rb}) }

// And emits rd = ra & rb.
func (b *Builder) And(rd, ra, rb Reg) { b.Emit(Instr{Op: AND, Rd: rd, Ra: ra, Rb: rb}) }

// Or emits rd = ra | rb.
func (b *Builder) Or(rd, ra, rb Reg) { b.Emit(Instr{Op: OR, Rd: rd, Ra: ra, Rb: rb}) }

// Xor emits rd = ra ^ rb.
func (b *Builder) Xor(rd, ra, rb Reg) { b.Emit(Instr{Op: XOR, Rd: rd, Ra: ra, Rb: rb}) }

// Sll emits rd = ra << (rb & 63).
func (b *Builder) Sll(rd, ra, rb Reg) { b.Emit(Instr{Op: SLL, Rd: rd, Ra: ra, Rb: rb}) }

// Srl emits rd = ra >> (rb & 63) (logical).
func (b *Builder) Srl(rd, ra, rb Reg) { b.Emit(Instr{Op: SRL, Rd: rd, Ra: ra, Rb: rb}) }

// Sra emits rd = int64(ra) >> (rb & 63) (arithmetic).
func (b *Builder) Sra(rd, ra, rb Reg) { b.Emit(Instr{Op: SRA, Rd: rd, Ra: ra, Rb: rb}) }

// Cmpeq emits rd = (ra == rb) ? 1 : 0.
func (b *Builder) Cmpeq(rd, ra, rb Reg) { b.Emit(Instr{Op: CMPEQ, Rd: rd, Ra: ra, Rb: rb}) }

// Cmplt emits rd = (int64(ra) < int64(rb)) ? 1 : 0.
func (b *Builder) Cmplt(rd, ra, rb Reg) { b.Emit(Instr{Op: CMPLT, Rd: rd, Ra: ra, Rb: rb}) }

// Cmple emits rd = (int64(ra) <= int64(rb)) ? 1 : 0.
func (b *Builder) Cmple(rd, ra, rb Reg) { b.Emit(Instr{Op: CMPLE, Rd: rd, Ra: ra, Rb: rb}) }

// Cmpult emits rd = (ra < rb) ? 1 : 0 (unsigned).
func (b *Builder) Cmpult(rd, ra, rb Reg) { b.Emit(Instr{Op: CMPULT, Rd: rd, Ra: ra, Rb: rb}) }

// --- ALU immediate ---

// Ldi emits rd = imm.
func (b *Builder) Ldi(rd Reg, imm int64) { b.Emit(Instr{Op: LDI, Rd: rd, Imm: imm}) }

// Addi emits rd = ra + imm.
func (b *Builder) Addi(rd, ra Reg, imm int64) { b.Emit(Instr{Op: ADDI, Rd: rd, Ra: ra, Imm: imm}) }

// Muli emits rd = ra * imm.
func (b *Builder) Muli(rd, ra Reg, imm int64) { b.Emit(Instr{Op: MULI, Rd: rd, Ra: ra, Imm: imm}) }

// Andi emits rd = ra & imm.
func (b *Builder) Andi(rd, ra Reg, imm int64) { b.Emit(Instr{Op: ANDI, Rd: rd, Ra: ra, Imm: imm}) }

// Ori emits rd = ra | imm.
func (b *Builder) Ori(rd, ra Reg, imm int64) { b.Emit(Instr{Op: ORI, Rd: rd, Ra: ra, Imm: imm}) }

// Xori emits rd = ra ^ imm.
func (b *Builder) Xori(rd, ra Reg, imm int64) { b.Emit(Instr{Op: XORI, Rd: rd, Ra: ra, Imm: imm}) }

// Slli emits rd = ra << imm.
func (b *Builder) Slli(rd, ra Reg, imm int64) { b.Emit(Instr{Op: SLLI, Rd: rd, Ra: ra, Imm: imm}) }

// Srli emits rd = ra >> imm (logical).
func (b *Builder) Srli(rd, ra Reg, imm int64) { b.Emit(Instr{Op: SRLI, Rd: rd, Ra: ra, Imm: imm}) }

// Srai emits rd = int64(ra) >> imm.
func (b *Builder) Srai(rd, ra Reg, imm int64) { b.Emit(Instr{Op: SRAI, Rd: rd, Ra: ra, Imm: imm}) }

// Cmpeqi emits rd = (ra == imm) ? 1 : 0.
func (b *Builder) Cmpeqi(rd, ra Reg, imm int64) { b.Emit(Instr{Op: CMPEQI, Rd: rd, Ra: ra, Imm: imm}) }

// Cmplti emits rd = (int64(ra) < imm) ? 1 : 0.
func (b *Builder) Cmplti(rd, ra Reg, imm int64) { b.Emit(Instr{Op: CMPLTI, Rd: rd, Ra: ra, Imm: imm}) }

// --- Memory ---

// Ldq emits rd = mem64[ra+imm].
func (b *Builder) Ldq(rd, ra Reg, imm int64) { b.Emit(Instr{Op: LDQ, Rd: rd, Ra: ra, Imm: imm}) }

// Stq emits mem64[ra+imm] = rd.
func (b *Builder) Stq(rd, ra Reg, imm int64) { b.Emit(Instr{Op: STQ, Rd: rd, Ra: ra, Imm: imm}) }

// Ldb emits rd = zext(mem8[ra+imm]).
func (b *Builder) Ldb(rd, ra Reg, imm int64) { b.Emit(Instr{Op: LDB, Rd: rd, Ra: ra, Imm: imm}) }

// Stb emits mem8[ra+imm] = rd&0xff.
func (b *Builder) Stb(rd, ra Reg, imm int64) { b.Emit(Instr{Op: STB, Rd: rd, Ra: ra, Imm: imm}) }

// Ldio emits rd = io[ra+imm] (uncached device read).
func (b *Builder) Ldio(rd, ra Reg, imm int64) { b.Emit(Instr{Op: LDIO, Rd: rd, Ra: ra, Imm: imm}) }

// Stio emits io[ra+imm] = rd (uncached device write).
func (b *Builder) Stio(rd, ra Reg, imm int64) { b.Emit(Instr{Op: STIO, Rd: rd, Ra: ra, Imm: imm}) }

// Fldq emits fd = mem64[ra+imm] (float bits).
func (b *Builder) Fldq(fd, ra Reg, imm int64) { b.Emit(Instr{Op: FLDQ, Rd: fd, Ra: ra, Imm: imm}) }

// Fstq emits mem64[ra+imm] = bits(fd).
func (b *Builder) Fstq(fd, ra Reg, imm int64) { b.Emit(Instr{Op: FSTQ, Rd: fd, Ra: ra, Imm: imm}) }

// --- Floating point ---

// Fadd emits fd = fa + fb.
func (b *Builder) Fadd(fd, fa, fb Reg) { b.Emit(Instr{Op: FADD, Rd: fd, Ra: fa, Rb: fb}) }

// Fsub emits fd = fa - fb.
func (b *Builder) Fsub(fd, fa, fb Reg) { b.Emit(Instr{Op: FSUB, Rd: fd, Ra: fa, Rb: fb}) }

// Fmul emits fd = fa * fb.
func (b *Builder) Fmul(fd, fa, fb Reg) { b.Emit(Instr{Op: FMUL, Rd: fd, Ra: fa, Rb: fb}) }

// Fdiv emits fd = fa / fb.
func (b *Builder) Fdiv(fd, fa, fb Reg) { b.Emit(Instr{Op: FDIV, Rd: fd, Ra: fa, Rb: fb}) }

// Fsqrt emits fd = sqrt(fa).
func (b *Builder) Fsqrt(fd, fa Reg) { b.Emit(Instr{Op: FSQRT, Rd: fd, Ra: fa}) }

// Fneg emits fd = -fa.
func (b *Builder) Fneg(fd, fa Reg) { b.Emit(Instr{Op: FNEG, Rd: fd, Ra: fa}) }

// Fcmplt emits fd = (fa < fb) ? 1.0-bits : 0 — the result is an integer 0/1
// stored in the FP register file, extractable with Ftoi.
func (b *Builder) Fcmplt(fd, fa, fb Reg) { b.Emit(Instr{Op: FCMPLT, Rd: fd, Ra: fa, Rb: fb}) }

// Fcmple emits fd = (fa <= fb) ? 1 : 0 (as raw bits).
func (b *Builder) Fcmple(fd, fa, fb Reg) { b.Emit(Instr{Op: FCMPLE, Rd: fd, Ra: fa, Rb: fb}) }

// Fcmpeq emits fd = (fa == fb) ? 1 : 0 (as raw bits).
func (b *Builder) Fcmpeq(fd, fa, fb Reg) { b.Emit(Instr{Op: FCMPEQ, Rd: fd, Ra: fa, Rb: fb}) }

// Cvtqf emits fd = float64(int64(ra)); ra is an integer register.
func (b *Builder) Cvtqf(fd, ra Reg) { b.Emit(Instr{Op: CVTQF, Rd: fd, Ra: ra}) }

// Cvtfq emits rd = int64(fa); rd is an integer register.
func (b *Builder) Cvtfq(rd, fa Reg) { b.Emit(Instr{Op: CVTFQ, Rd: rd, Ra: fa}) }

// Itof emits fd = bits(ra) (raw move).
func (b *Builder) Itof(fd, ra Reg) { b.Emit(Instr{Op: ITOF, Rd: fd, Ra: ra}) }

// Ftoi emits rd = bits(fa) (raw move).
func (b *Builder) Ftoi(rd, fa Reg) { b.Emit(Instr{Op: FTOI, Rd: rd, Ra: fa}) }

// --- Control ---

func (b *Builder) branchTo(i Instr, label string) {
	b.fixups[len(b.code)] = label
	b.Emit(i)
}

// Br emits an unconditional branch to label.
func (b *Builder) Br(label string) { b.branchTo(Instr{Op: BR}, label) }

// Beq emits a branch to label taken if ra == 0.
func (b *Builder) Beq(ra Reg, label string) { b.branchTo(Instr{Op: BEQ, Ra: ra}, label) }

// Bne emits a branch to label taken if ra != 0.
func (b *Builder) Bne(ra Reg, label string) { b.branchTo(Instr{Op: BNE, Ra: ra}, label) }

// Blt emits a branch to label taken if int64(ra) < 0.
func (b *Builder) Blt(ra Reg, label string) { b.branchTo(Instr{Op: BLT, Ra: ra}, label) }

// Bge emits a branch to label taken if int64(ra) >= 0.
func (b *Builder) Bge(ra Reg, label string) { b.branchTo(Instr{Op: BGE, Ra: ra}, label) }

// Bgt emits a branch to label taken if int64(ra) > 0.
func (b *Builder) Bgt(ra Reg, label string) { b.branchTo(Instr{Op: BGT, Ra: ra}, label) }

// Ble emits a branch to label taken if int64(ra) <= 0.
func (b *Builder) Ble(ra Reg, label string) { b.branchTo(Instr{Op: BLE, Ra: ra}, label) }

// Jsr emits a direct call to label, writing the return PC to rd.
func (b *Builder) Jsr(rd Reg, label string) { b.branchTo(Instr{Op: JSR, Rd: rd}, label) }

// Jmp emits an indirect jump to the address in ra, writing the return PC to
// rd (use R31 to discard). Used for returns and jump tables.
func (b *Builder) Jmp(rd, ra Reg) { b.Emit(Instr{Op: JMP, Rd: rd, Ra: ra}) }

// Ret emits a return through ra.
func (b *Builder) Ret(ra Reg) { b.Jmp(R31, ra) }

// --- Misc ---

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(Instr{Op: NOP}) }

// Mb emits a memory barrier.
func (b *Builder) Mb() { b.Emit(Instr{Op: MB}) }

// Halt emits a thread-halt.
func (b *Builder) Halt() { b.Emit(Instr{Op: HALT}) }

// Finish resolves labels, validates and returns the assembled program.
func (b *Builder) Finish() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Resolve fixups deterministically (sorted by index) so error messages
	// are stable.
	idxs := make([]int, 0, len(b.fixups))
	for i := range b.fixups {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		label := b.fixups[i]
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q at pc=%d", label, i)
		}
		b.code[i].Imm = int64(target) - int64(i) - 1
	}
	for _, lt := range b.labelTables {
		vals := make([]uint64, len(lt.labels))
		for i, l := range lt.labels {
			target, ok := b.labels[l]
			if !ok {
				return nil, fmt.Errorf("isa: undefined label %q in jump table at %#x", l, lt.addr)
			}
			vals[i] = target
		}
		b.InitData64(lt.addr, vals...)
	}
	// Reject overlapping data regions.
	type span struct{ lo, hi uint64 }
	var spans []span
	for addr, bytes := range b.data {
		spans = append(spans, span{addr, addr + uint64(len(bytes))})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return nil, fmt.Errorf("isa: overlapping data regions [%#x,%#x) and [%#x,%#x)",
				spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	p := &Program{Name: b.name, Code: b.code, Data: b.data}
	if b.handlerLabel != "" {
		target, ok := b.labels[b.handlerLabel]
		if !ok {
			return nil, fmt.Errorf("isa: undefined interrupt handler label %q", b.handlerLabel)
		}
		p.InterruptHandler = target
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustFinish is Finish that panics on error, for statically-known programs.
func (b *Builder) MustFinish() *Program {
	p, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return p
}
