package isa

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instr{
		{Op: ADD, Rd: R1, Ra: R2, Rb: R3},
		{Op: LDI, Rd: R4, Imm: -12345},
		{Op: LDQ, Rd: R5, Ra: R6, Imm: 4096},
		{Op: STB, Rd: R7, Ra: R8, Imm: -1},
		{Op: BEQ, Ra: R9, Imm: -100},
		{Op: JSR, Rd: R26, Imm: 500},
		{Op: FADD, Rd: F1, Ra: F2, Rb: F3},
		{Op: MB},
		{Op: HALT},
		{Op: LDI, Rd: R0, Imm: (1 << 31) - 1},
		{Op: LDI, Rd: R0, Imm: -(1 << 31)},
	}
	for _, in := range cases {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", in, err)
		}
		if got != in {
			t.Errorf("round trip: got %v, want %v", got, in)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	cases := []Instr{
		{Op: Op(200)},
		{Op: ADD, Rd: 32},
		{Op: ADD, Ra: 33},
		{Op: ADD, Rb: 40},
		{Op: LDI, Imm: 1 << 31},
		{Op: LDI, Imm: -(1 << 31) - 1},
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v): expected error", in)
		}
	}
}

func TestDecodeRejectsBadOpcode(t *testing.T) {
	if _, err := Decode(Word(uint64(numOps) << 56)); err == nil {
		t.Error("Decode of invalid opcode succeeded")
	}
	if _, err := Decode(Word(uint64(ADD)<<56 | uint64(63)<<48)); err == nil {
		t.Error("Decode of out-of-range register succeeded")
	}
}

// TestEncodeDecodeQuick property-tests that any valid instruction round-trips.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(op uint8, rd, ra, rb uint8, imm int32) bool {
		in := Instr{
			Op:  Op(op % uint8(numOps)),
			Rd:  Reg(rd % NumIntRegs),
			Ra:  Reg(ra % NumIntRegs),
			Rb:  Reg(rb % NumIntRegs),
			Imm: int64(imm),
		}
		w, err := Encode(in)
		if err != nil {
			return false
		}
		got, err := Decode(w)
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanics property-tests the decoder against arbitrary words.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(w uint64) bool {
		ins, err := Decode(Word(w))
		if err != nil {
			return true
		}
		// Anything that decodes must re-encode to the same word.
		w2, err := Encode(ins)
		return err == nil && uint64(w2) == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBranchTarget(t *testing.T) {
	ins := Instr{Op: BEQ, Ra: R1, Imm: -3}
	if got := ins.BranchTarget(10); got != 8 {
		t.Errorf("BranchTarget(10) with imm -3 = %d, want 8", got)
	}
	fwd := Instr{Op: BR, Imm: 5}
	if got := fwd.BranchTarget(0); got != 6 {
		t.Errorf("BranchTarget(0) with imm 5 = %d, want 6", got)
	}
}

func TestInstrPredicates(t *testing.T) {
	checks := []struct {
		in                             Instr
		branch, cond, mem, load, store bool
		memBytes                       int
		hasDest                        bool
	}{
		{Instr{Op: ADD, Rd: R1}, false, false, false, false, false, 0, true},
		{Instr{Op: LDQ, Rd: R1}, false, false, true, true, false, 8, true},
		{Instr{Op: STB, Rd: R1}, false, false, true, false, true, 1, false},
		{Instr{Op: FSTQ, Rd: F1}, false, false, true, false, true, 8, false},
		{Instr{Op: BEQ, Ra: R1}, true, true, false, false, false, 0, false},
		{Instr{Op: BR}, true, false, false, false, false, 0, false},
		{Instr{Op: JSR, Rd: R26}, true, false, false, false, false, 0, true},
		{Instr{Op: JMP, Rd: R31, Ra: R26}, true, false, false, false, false, 0, true},
		{Instr{Op: MB}, false, false, false, false, false, 0, false},
		{Instr{Op: NOP}, false, false, false, false, false, 0, false},
	}
	for _, c := range checks {
		if got := c.in.IsBranch(); got != c.branch {
			t.Errorf("%v IsBranch = %v", c.in, got)
		}
		if got := c.in.IsCondBranch(); got != c.cond {
			t.Errorf("%v IsCondBranch = %v", c.in, got)
		}
		if got := c.in.IsMem(); got != c.mem {
			t.Errorf("%v IsMem = %v", c.in, got)
		}
		if got := c.in.IsLoad(); got != c.load {
			t.Errorf("%v IsLoad = %v", c.in, got)
		}
		if got := c.in.IsStore(); got != c.store {
			t.Errorf("%v IsStore = %v", c.in, got)
		}
		if got := c.in.MemBytes(); got != c.memBytes {
			t.Errorf("%v MemBytes = %d", c.in, got)
		}
		if got := c.in.HasDest(); got != c.hasDest {
			t.Errorf("%v HasDest = %v", c.in, got)
		}
	}
}

func TestDestDiscarded(t *testing.T) {
	checks := []struct {
		in   Instr
		want bool
	}{
		{Instr{Op: JSR, Rd: R31, Ra: R3}, true},  // link discarded
		{Instr{Op: JSR, Rd: R26, Ra: R3}, false}, // link kept
		{Instr{Op: ADD, Rd: R31, Ra: R1}, true},  // computed into the sink
		{Instr{Op: ADD, Rd: R1, Ra: R2}, false},  // normal write
		{Instr{Op: STQ, Rd: R31, Ra: R1}, false}, // stores have no dest; Rd is data
		{Instr{Op: BEQ, Rd: R31, Ra: R1}, false}, // branches never write
		{Instr{Op: FADD, Rd: F31, Ra: F1}, true}, // FP sink (F31 aliases reg 31)
		{Instr{Op: FADD, Rd: F1, Ra: F2}, false},
	}
	for _, c := range checks {
		if got := c.in.DestDiscarded(); got != c.want {
			t.Errorf("%v DestDiscarded = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDestIsFP(t *testing.T) {
	if !(Instr{Op: FLDQ}).DestIsFP() {
		t.Error("FLDQ dest should be FP")
	}
	if (Instr{Op: LDQ}).DestIsFP() {
		t.Error("LDQ dest should be integer")
	}
	if (Instr{Op: CVTFQ}).DestIsFP() {
		t.Error("CVTFQ dest should be integer")
	}
	if !(Instr{Op: CVTQF}).DestIsFP() {
		t.Error("CVTQF dest should be FP")
	}
	if !(Instr{Op: FCMPLT}).DestIsFP() {
		t.Error("FCMPLT dest should be FP")
	}
}

// TestSources: the registers an instruction reads, in field order Ra, Rb,
// Rd, with the hardwired zero left out, listed without allocating.
func TestSources(t *testing.T) {
	checks := []struct {
		in   Instr
		want []Operand
	}{
		{Instr{Op: ADD, Rd: R1, Ra: R2, Rb: R3}, []Operand{{R2, false}, {R3, false}}},
		{Instr{Op: ADD, Rd: R1, Ra: R31, Rb: R3}, []Operand{{R3, false}}},
		{Instr{Op: ADDI, Rd: R1, Ra: R2, Rb: R3}, []Operand{{R2, false}}},
		{Instr{Op: STQ, Rd: R1, Ra: R2}, []Operand{{R2, false}, {R1, false}}},
		{Instr{Op: FSTQ, Rd: F1, Ra: R2}, []Operand{{R2, false}, {F1, true}}},
		{Instr{Op: CVTFQ, Rd: R1, Ra: F2}, []Operand{{F2, true}}},
		{Instr{Op: FADD, Rd: F1, Ra: F2, Rb: F3}, []Operand{{F2, true}, {F3, true}}},
		{Instr{Op: JSR, Rd: R26, Ra: R2, Rb: R3}, nil},
		{Instr{Op: JMP, Rd: R31, Ra: R26}, []Operand{{R26, false}}},
	}
	for _, c := range checks {
		srcs, n := c.in.Sources()
		if got := srcs[:n]; !slices.Equal(got, c.want) {
			t.Errorf("%v Sources = %v, want %v", c.in, got, c.want)
		}
	}
	store, n := Instr{Op: FSTQ, Rd: F1, Ra: R2}, 0
	if allocs := testing.AllocsPerRun(100, func() { _, n = store.Sources() }); allocs != 0 || n != 2 {
		t.Errorf("Sources allocates %v times per call (listed %d sources)", allocs, n)
	}
}

func TestOpStrings(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		s := op.String()
		if s == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
	if Op(250).String() != "op(250)" {
		t.Errorf("invalid op string: %q", Op(250).String())
	}
}

func TestClassCoverage(t *testing.T) {
	// Every defined op must have a class consistent with its predicates.
	for op := Op(1); op < numOps; op++ {
		in := Instr{Op: op}
		c := op.Info().Class
		if in.IsLoad() != (c == ClassLoad) {
			t.Errorf("%v: load class mismatch", op)
		}
		if in.IsStore() != (c == ClassStore) {
			t.Errorf("%v: store class mismatch", op)
		}
	}
}
