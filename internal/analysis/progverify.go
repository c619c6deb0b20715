package analysis

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/isa"
)

// This file is Layer 2 of rmtlint: a static verifier for programs in the
// simulator's own ISA. The paper's sphere of replication assumes the
// workload is a well-formed program before the first fault is injected;
// VerifyProgram makes that assumption checkable. It builds a control-flow
// graph over the code image and checks, in order:
//
//	encode          every instruction encodes (opcode/register/imm ranges)
//	entry           entry point and interrupt handler are inside the code
//	branch-bounds   every direct branch/call target is inside the code
//	fallthrough     no path can run off the end of the code image
//	unreachable     every instruction is reachable from entry, the
//	                interrupt handler, or a statically-visible indirect
//	                target (JSR/JMP link values, jump-table words in the
//	                data image)
//	use-before-def  no reachable instruction reads a register that is not
//	                written on ANY path reaching it (registers are
//	                architecturally zeroed at thread start, so the lazy
//	                accumulator idiom the kernels use is well-defined;
//	                a register with no reaching definition at all is
//	                always a typo)
//	zero-write      no non-jump instruction targets hardwired R31/F31
//	halt            if the program contains HALT, one must be reachable
//	                (kernels are deliberate infinite loops and carry none)
//	mem-bounds      statically-derivable effective addresses (constant
//	                propagation from the zeroed register file) must not
//	                wrap negative or leave the 4 GiB data space; when all
//	                store addresses are statically known, loads must also
//	                stay inside the program's data segment
type ProgramIssue struct {
	// Check names the failed check (see above).
	Check string
	// PC is the instruction address the issue anchors to, or -1 for
	// program-wide issues.
	PC int
	// Msg states the defect.
	Msg string
}

func (i ProgramIssue) String() string {
	if i.PC < 0 {
		return fmt.Sprintf("[%s] %s", i.Check, i.Msg)
	}
	return fmt.Sprintf("pc=%d [%s] %s", i.PC, i.Check, i.Msg)
}

// dataSpaceLimit bounds statically-derived effective addresses: the kernels
// address at most a few MB, so an address beyond 4 GiB is a typo'd
// immediate, not a big working set.
const dataSpaceLimit = uint64(1) << 32

// VerifyProgram statically checks an assembled program and returns every
// issue found (empty means the program is well-formed). Structural issues
// (encoding, entry, branch bounds) suppress the CFG-based checks, which
// would otherwise cascade.
func VerifyProgram(p *isa.Program) []ProgramIssue {
	var issues []ProgramIssue
	add := func(check string, pc int, format string, args ...any) {
		issues = append(issues, ProgramIssue{Check: check, PC: pc, Msg: fmt.Sprintf(format, args...)})
	}
	n := len(p.Code)
	if n == 0 {
		add("entry", -1, "empty program")
		return issues
	}
	if p.Entry >= uint64(n) {
		add("entry", -1, "entry %d outside code (len %d)", p.Entry, n)
	}
	if p.InterruptHandler >= uint64(n) {
		add("entry", -1, "interrupt handler %d outside code (len %d)", p.InterruptHandler, n)
	}
	for pc, ins := range p.Code {
		if _, err := isa.Encode(ins); err != nil {
			add("encode", pc, "%v", err)
			continue
		}
		if ins.Flow()&isa.Direct != 0 {
			if t := ins.BranchTarget(uint64(pc)); t >= uint64(n) {
				add("branch-bounds", pc, "%v: target %d outside code (len %d)", ins, t, n)
			}
		}
	}
	if len(issues) > 0 {
		return issues
	}

	cfg := buildCFG(p)
	issues = append(issues, checkFallthrough(p)...)
	reach := reachable(p, cfg)
	issues = append(issues, reportUnreachable(p, reach)...)
	issues = append(issues, checkDefUse(p, cfg, reach)...)
	issues = append(issues, checkZeroWrites(p, reach)...)
	issues = append(issues, checkHalt(p, reach)...)
	issues = append(issues, checkMemBounds(p, cfg, reach)...)
	sort.SliceStable(issues, func(i, j int) bool { return issues[i].PC < issues[j].PC })
	return issues
}

// cfg holds per-instruction successor lists, built from each opcode's
// control flow in the isa opcode table. Indirect jumps get the program's
// statically-visible indirect target set: captured link values and
// code-range words in the initial data image (jump tables).
type progCFG struct {
	succs    [][]int
	indirect []int
}

func buildCFG(p *isa.Program) *progCFG {
	n := len(p.Code)
	cfg := &progCFG{succs: make([][]int, n)}
	for _, ins := range p.Code {
		if ins.Flow()&isa.Indirect != 0 {
			cfg.indirect = indirectTargets(p)
			break
		}
	}
	for pc, ins := range p.Code {
		f := ins.Flow()
		var succs []int
		if f&isa.Direct != 0 {
			succs = []int{int(ins.BranchTarget(uint64(pc)))}
		}
		switch {
		case f&isa.Indirect != 0:
			succs = cfg.indirect
		case f&isa.FallsThrough != 0 || f&isa.Link != 0: // a call returns to pc+1
			if pc+1 < n {
				succs = append(succs, pc+1)
			}
		}
		cfg.succs[pc] = succs
	}
	return cfg
}

// indirectTargets over-approximates where an indirect jump can land: every
// captured link value (pc+1 of a linking instruction) plus every aligned
// 64-bit word in the initial data image whose value indexes the code (jump
// tables land here; small data constants are included too, which errs on
// the side of reachability).
func indirectTargets(p *isa.Program) []int {
	n := len(p.Code)
	set := map[int]bool{}
	for pc, ins := range p.Code {
		if ins.Flow()&isa.Link != 0 && ins.Rd != isa.ZeroReg && pc+1 < n {
			set[pc+1] = true
		}
	}
	for _, blob := range p.Data {
		for off := 0; off+8 <= len(blob); off += 8 {
			v := uint64(blob[off]) | uint64(blob[off+1])<<8 | uint64(blob[off+2])<<16 |
				uint64(blob[off+3])<<24 | uint64(blob[off+4])<<32 | uint64(blob[off+5])<<40 |
				uint64(blob[off+6])<<48 | uint64(blob[off+7])<<56
			if v < uint64(n) {
				set[int(v)] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// checkFallthrough flags instructions whose execution can step past the end
// of the code image: only HALT and unconditional transfers may be last (a
// call's link may never return there).
func checkFallthrough(p *isa.Program) []ProgramIssue {
	last := len(p.Code) - 1
	if ins := p.Code[last]; ins.Flow()&isa.FallsThrough != 0 {
		return []ProgramIssue{{Check: "fallthrough", PC: last,
			Msg: fmt.Sprintf("%v: execution falls off the end of the code image", ins)}}
	}
	return nil
}

func roots(p *isa.Program) []int {
	rs := []int{int(p.Entry)}
	if p.InterruptHandler != 0 {
		rs = append(rs, int(p.InterruptHandler))
	}
	return rs
}

func reachable(p *isa.Program, cfg *progCFG) []bool {
	reach := make([]bool, len(p.Code))
	work := append([]int(nil), roots(p)...)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if reach[pc] {
			continue
		}
		reach[pc] = true
		work = append(work, cfg.succs[pc]...)
	}
	return reach
}

func reportUnreachable(p *isa.Program, reach []bool) []ProgramIssue {
	var issues []ProgramIssue
	for pc := 0; pc < len(reach); {
		if reach[pc] {
			pc++
			continue
		}
		end := pc
		for end < len(reach) && !reach[end] {
			end++
		}
		issues = append(issues, ProgramIssue{Check: "unreachable", PC: pc,
			Msg: fmt.Sprintf("unreachable code: pc %d..%d (%d instructions)", pc, end-1, end-pc)})
		pc = end
	}
	return issues
}

// regBits is a pair of 32-bit register bitsets: low word integer, high word
// floating point.
type regBits uint64

const (
	intBit     = regBits(1)
	fpBit      = regBits(1) << 32
	allDefined = ^regBits(0)
)

func regBit(r isa.Reg, fp bool) regBits {
	if fp {
		return fpBit << r
	}
	return intBit << r
}

// useDef folds an instruction's operands, as the isa opcode table gives
// them, into the registers it reads (use) and the register it writes
// (def). The hardwired-zero registers are never members: a read of R31/F31
// observes the architectural constant, and a write to them is dropped.
func useDef(ins isa.Instr) (use, def regBits) {
	srcs, n := ins.Sources()
	for _, s := range srcs[:n] {
		use |= regBit(s.Reg, s.FP)
	}
	if ins.HasDest() && ins.Rd != isa.ZeroReg {
		def = regBit(ins.Rd, ins.DestIsFP())
	}
	return use, def
}

// checkDefUse runs a may-defined forward dataflow from the entry (registers
// start architecturally zeroed, so "defined" here means "some reaching path
// wrote it") and flags reachable reads of registers with no reaching
// definition at all — a register the program never writes on any path into
// the use is a typo, while first-iteration zero reads of later-written
// accumulators are the kernels' sanctioned lazy-init idiom and pass.
func checkDefUse(p *isa.Program, cfg *progCFG, reach []bool) []ProgramIssue {
	n := len(p.Code)
	in := make([]regBits, n)
	seen := make([]bool, n)
	var work []int
	push := func(pc int, state regBits) {
		if !seen[pc] || in[pc]|state != in[pc] {
			in[pc] |= state
			seen[pc] = true
			work = append(work, pc)
		}
	}
	push(int(p.Entry), 0)
	if p.InterruptHandler != 0 {
		// The handler interrupts arbitrary code: every register may hold
		// live interrupted state (R30 carries the return link).
		push(int(p.InterruptHandler), allDefined)
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		_, def := useDef(p.Code[pc])
		out := in[pc] | def
		for _, s := range cfg.succs[pc] {
			push(s, out)
		}
	}
	var issues []ProgramIssue
	for pc, ins := range p.Code {
		if !reach[pc] || !seen[pc] {
			continue
		}
		srcs, n := ins.Sources()
		for _, s := range srcs[:n] {
			if in[pc]&regBit(s.Reg, s.FP) == 0 {
				file := "r"
				if s.FP {
					file = "f"
				}
				issues = append(issues, ProgramIssue{Check: "use-before-def", PC: pc,
					Msg: fmt.Sprintf("%v: reads %s%d, which no path into this instruction ever writes", ins, file, s.Reg)})
			}
		}
	}
	return issues
}

// checkZeroWrites flags writes to the hardwired-zero registers. Linking
// jumps are exempt: discarding the link through R31 is the return idiom.
func checkZeroWrites(p *isa.Program, reach []bool) []ProgramIssue {
	var issues []ProgramIssue
	for pc, ins := range p.Code {
		if !reach[pc] || !ins.DestDiscarded() || ins.Flow()&isa.Link != 0 {
			continue
		}
		name := "r31"
		if ins.DestIsFP() {
			name = "f31"
		}
		issues = append(issues, ProgramIssue{Check: "zero-write", PC: pc,
			Msg: fmt.Sprintf("%v: write to hardwired-zero %s is silently discarded", ins, name)})
	}
	return issues
}

// checkHalt verifies the program's termination structure: a program that
// contains HALT must be able to reach one (an unreachable-only HALT means
// the intended exit was orphaned); a program with no HALT at all is an
// intentional infinite loop, already guaranteed by the fallthrough check
// never to leave the code image.
func checkHalt(p *isa.Program, reach []bool) []ProgramIssue {
	first := -1
	for pc, ins := range p.Code {
		if ins.Op != isa.HALT {
			continue
		}
		if reach[pc] {
			return nil
		}
		if first < 0 {
			first = pc
		}
	}
	if first < 0 {
		return nil
	}
	return []ProgramIssue{{Check: "halt", PC: first,
		Msg: "program contains HALT but no reachable one: the exit path is orphaned"}}
}

// --- constant propagation for mem-bounds ---

// constVal is a three-point lattice over an integer register: unset (top,
// no path reached yet), known constant, or varies (bottom).
type constVal struct {
	known  bool
	varies bool
	v      uint64
}

func meet(a, b constVal) constVal {
	switch {
	case a.varies || b.varies:
		return constVal{varies: true}
	case !a.known:
		return b
	case !b.known:
		return a
	case a.v == b.v:
		return a
	default:
		return constVal{varies: true}
	}
}

type constState [isa.NumIntRegs]constVal

func (s *constState) get(r isa.Reg) constVal {
	if r == isa.ZeroReg {
		return constVal{known: true}
	}
	return s[r]
}

func (s *constState) set(r isa.Reg, v constVal) {
	if r != isa.ZeroReg {
		s[r] = v
	}
}

func meetState(a, b *constState) (constState, bool) {
	var out constState
	changed := false
	for i := range a {
		out[i] = meet(a[i], b[i])
		if out[i] != a[i] {
			changed = true
		}
	}
	return out, changed
}

// constTransfer models the VM's integer semantics for the ops whose results
// are statically computable; everything else (loads, FP extracts, DIV/MOD
// and shifts-by-register, which this pass doesn't need) becomes varies.
func constTransfer(s *constState, pc int, ins isa.Instr) {
	if !ins.HasDest() || ins.DestIsFP() {
		return
	}
	ra := s.get(ins.Ra)
	rb := s.get(ins.Rb)
	val := constVal{varies: true}
	bin := func(f func(a, b uint64) uint64) {
		if ra.known && rb.known {
			val = constVal{known: true, v: f(ra.v, rb.v)}
		}
	}
	immOp := func(f func(a uint64) uint64) {
		if ra.known {
			val = constVal{known: true, v: f(ra.v)}
		}
	}
	imm := uint64(ins.Imm)
	switch ins.Op {
	case isa.LDI:
		val = constVal{known: true, v: imm}
	case isa.ADD:
		bin(func(a, b uint64) uint64 { return a + b })
	case isa.SUB:
		bin(func(a, b uint64) uint64 { return a - b })
	case isa.MUL:
		bin(func(a, b uint64) uint64 { return a * b })
	case isa.AND:
		bin(func(a, b uint64) uint64 { return a & b })
	case isa.OR:
		bin(func(a, b uint64) uint64 { return a | b })
	case isa.XOR:
		bin(func(a, b uint64) uint64 { return a ^ b })
	case isa.SLL:
		bin(func(a, b uint64) uint64 { return a << (b & 63) })
	case isa.SRL:
		bin(func(a, b uint64) uint64 { return a >> (b & 63) })
	case isa.ADDI:
		immOp(func(a uint64) uint64 { return a + imm })
	case isa.MULI:
		immOp(func(a uint64) uint64 { return a * imm })
	case isa.ANDI:
		immOp(func(a uint64) uint64 { return a & imm })
	case isa.ORI:
		immOp(func(a uint64) uint64 { return a | imm })
	case isa.XORI:
		immOp(func(a uint64) uint64 { return a ^ imm })
	case isa.SLLI:
		immOp(func(a uint64) uint64 { return a << (imm & 63) })
	case isa.SRLI:
		immOp(func(a uint64) uint64 { return a >> (imm & 63) })
	case isa.JSR, isa.JMP:
		val = constVal{known: true, v: uint64(pc) + 1}
	}
	s.set(ins.Rd, val)
}

// constFixpoint propagates constants from the zeroed register file to a
// fixpoint over the CFG and returns each instruction's entry state plus a
// mask of the pcs the propagation visited. Shared by the mem-bounds
// verifier and the memory-liveness analysis (dataflow.go) so the two can
// never disagree about which effective addresses are statically known.
func constFixpoint(p *isa.Program, cfg *progCFG) (states []constState, seen []bool) {
	n := len(p.Code)
	in := make([]constState, n)
	seen = make([]bool, n)
	var work []int
	pushRoot := func(pc int, varies bool) {
		var s constState
		if varies {
			for i := range s {
				s[i] = constVal{varies: true}
			}
		} else {
			for i := range s {
				s[i] = constVal{known: true} // architecturally zeroed
			}
		}
		in[pc] = s
		seen[pc] = true
		work = append(work, pc)
	}
	pushRoot(int(p.Entry), false)
	if p.InterruptHandler != 0 {
		pushRoot(int(p.InterruptHandler), true)
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[pc]
		constTransfer(&out, pc, p.Code[pc])
		for _, s := range cfg.succs[pc] {
			if !seen[s] {
				in[s] = out
				seen[s] = true
				work = append(work, s)
				continue
			}
			merged, changed := meetState(&in[s], &out)
			if changed {
				in[s] = merged
				work = append(work, s)
			}
		}
	}
	return in, seen
}

// checkMemBounds propagates constants from the zeroed register file to every
// reachable memory instruction and flags statically-wild effective
// addresses. When every store address in the program is statically known,
// the data segment is fully visible, so loads outside it are flagged too.
func checkMemBounds(p *isa.Program, cfg *progCFG, reach []bool) []ProgramIssue {
	in, seen := constFixpoint(p, cfg)

	// Data segment: initial image plus statically-known store spans
	// (capped at the sanity limit so a wild store cannot mask itself).
	segEnd := uint64(4096)
	for addr, blob := range p.Data {
		if end := addr + uint64(len(blob)); end <= dataSpaceLimit && end > segEnd {
			segEnd = end
		}
	}
	allStoresKnown := true
	type memAccess struct {
		pc   int
		ins  isa.Instr
		ea   uint64
		size uint64
	}
	var accesses []memAccess
	for pc, ins := range p.Code {
		if !reach[pc] || !seen[pc] || !ins.IsMem() || ins.IsUncached() {
			continue
		}
		st := in[pc]
		base := st.get(ins.Ra)
		if !base.known {
			if ins.IsStore() {
				allStoresKnown = false
			}
			continue
		}
		ea := base.v + uint64(ins.Imm)
		accesses = append(accesses, memAccess{pc, ins, ea, uint64(ins.MemBytes())})
		if ins.IsStore() {
			if end := ea + uint64(ins.MemBytes()); end <= dataSpaceLimit && end > segEnd {
				segEnd = end
			}
		}
	}
	segLimit := uint64(1) << bits.Len64(segEnd-1)

	var issues []ProgramIssue
	for _, a := range accesses {
		switch {
		case int64(a.ea) < 0:
			issues = append(issues, ProgramIssue{Check: "mem-bounds", PC: a.pc,
				Msg: fmt.Sprintf("%v: effective address %d wraps negative", a.ins, int64(a.ea))})
		case a.ea+a.size > dataSpaceLimit:
			issues = append(issues, ProgramIssue{Check: "mem-bounds", PC: a.pc,
				Msg: fmt.Sprintf("%v: effective address %#x is beyond the 4 GiB data space", a.ins, a.ea)})
		case allStoresKnown && a.ea+a.size > segLimit:
			issues = append(issues, ProgramIssue{Check: "mem-bounds", PC: a.pc,
				Msg: fmt.Sprintf("%v: effective address %#x is outside the program's data segment (limit %#x)", a.ins, a.ea, segLimit)})
		}
	}
	return issues
}
