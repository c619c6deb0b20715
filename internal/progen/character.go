package progen

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Profile is one kernel's characterisation: the workload-character axes
// the paper's evaluation turns on (branchiness, memory footprint, miss
// behaviour, exploitable ILP), measured by a full functional replay to
// the kernel's HALT. JSON field order is the corpus artifact format
// cmd/progen emits.
type Profile struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// StaticInstrs is the code size; DataBytes the initial image size.
	StaticInstrs int `json:"static_instrs"`
	DataBytes    int `json:"data_bytes"`
	// DynInstrs is the measured dynamic length (committed instructions to
	// HALT); DeclaredMaxDyn the generator's compositional bound, which
	// DynInstrs never exceeds.
	DynInstrs      uint64 `json:"dyn_instrs"`
	DeclaredMaxDyn uint64 `json:"declared_max_dyn"`
	// Instruction-mix fractions of the dynamic stream.
	LoadFrac   float64 `json:"load_frac"`
	StoreFrac  float64 `json:"store_frac"`
	BranchFrac float64 `json:"branch_frac"`
	FPFrac     float64 `json:"fp_frac"`
	// TakenRate is the fraction of conditional branches taken.
	TakenRate float64 `json:"taken_rate"`
	// FootprintLines counts distinct 64-byte lines touched; MissProxy is
	// distinct-lines / memory-accesses — the compulsory-miss-rate proxy
	// (an infinite cache's miss rate).
	FootprintLines int     `json:"footprint_lines"`
	MissProxy      float64 `json:"miss_proxy"`
	// ILP is DynInstrs divided by the length of the longest dynamic
	// dependence chain (registers and memory, unit latency) — the
	// speedup ceiling of an infinitely wide machine.
	ILP float64 `json:"ilp"`
}

// characterizeCap bounds a characterisation replay, far above any
// generated kernel's declared bound — a kernel that trips it is a
// generator bug, not a long workload.
const characterizeCap = 4 << 20

// profiler accumulates one kernel's profile from its committed outcome
// stream. The measurement is a pure function of the outcome sequence,
// which the vm battery holds bit-equal between batched and scalar
// execution.
type profiler struct {
	loads, stores, branches, fp stats.Counter
	taken                       stats.Mean
	lines                       map[uint64]bool
	memRefs                     uint64

	// Dependence-depth scoreboard: depth[r] is the length of the chain
	// producing r's current value; the critical path is the max over all
	// writes. Memory carries chains through store->load at 8-byte grain.
	intDepth, fpDepth [32]uint64
	memDepth          map[uint64]uint64
	critical          uint64
}

func newProfiler() *profiler {
	return &profiler{
		lines:    make(map[uint64]bool),
		memDepth: make(map[uint64]uint64),
	}
}

// step accumulates one committed instruction. The outcome buffer may be
// reused by the caller; step copies what it keeps.
func (p *profiler) step(out *vm.Outcome) {
	ins := out.Instr
	switch {
	case ins.IsLoad():
		p.loads.Inc()
	case ins.IsStore():
		p.stores.Inc()
	case ins.IsBranch():
		p.branches.Inc()
	}
	if ins.IsCondBranch() {
		if out.Taken {
			p.taken.Add(1)
		} else {
			p.taken.Add(0)
		}
	}
	if isFPOp(ins.Op) {
		p.fp.Inc()
	}
	if ins.IsMem() && !ins.IsUncached() {
		p.memRefs++
		for a := out.Addr &^ 63; a < out.Addr+uint64(ins.MemBytes()); a += 64 {
			p.lines[a] = true
		}
	}
	p.depthStep(ins, out)
}

// finish folds the accumulated counters into the kernel's profile.
func (p *profiler) finish(k *Kernel, dyn uint64) *Profile {
	frac := func(c stats.Counter) float64 {
		if dyn == 0 {
			return 0
		}
		return float64(c.Value()) / float64(dyn)
	}
	prof := &Profile{
		Name:           k.Prog.Name,
		Seed:           k.Seed,
		StaticInstrs:   len(k.Prog.Code),
		DataBytes:      k.Prog.DataFootprint(),
		DynInstrs:      dyn,
		DeclaredMaxDyn: k.MaxDynInstr,
		LoadFrac:       frac(p.loads),
		StoreFrac:      frac(p.stores),
		BranchFrac:     frac(p.branches),
		FPFrac:         frac(p.fp),
		TakenRate:      p.taken.Value(),
		FootprintLines: len(p.lines),
	}
	if p.memRefs > 0 {
		prof.MissProxy = float64(len(p.lines)) / float64(p.memRefs)
	}
	if p.critical > 0 {
		prof.ILP = float64(dyn) / float64(p.critical)
	}
	return prof
}

// Characterize replays the kernel functionally to its HALT on the batched
// engine (a single-lane vm.Batch — predecode amortised, outcomes observed
// in place) and measures the profile. An error means the kernel overran
// its declared bound — the generator's halt guarantee failed. The tests
// hold it byte-identical to the same measurement over a scalar vm.Thread.
func Characterize(k *Kernel) (*Profile, error) {
	memImg := vm.NewMemory()
	vm.Load(k.Prog, memImg)
	b := vm.NewBatch(k.Prog, memImg, 1)
	p := newProfiler()
	b.Observer = func(_ int, out *vm.Outcome) { p.step(out) }

	for !b.Halted[0] {
		if b.Seq[0] >= characterizeCap {
			return nil, fmt.Errorf("progen: %s did not halt within %d instructions (declared bound %d)",
				k.Prog.Name, uint64(characterizeCap), k.MaxDynInstr)
		}
		b.Step()
	}
	if b.Seq[0] > k.MaxDynInstr {
		return nil, fmt.Errorf("progen: %s halted at %d dynamic instructions, beyond its declared bound %d",
			k.Prog.Name, b.Seq[0], k.MaxDynInstr)
	}
	return p.finish(k, b.Seq[0]), nil
}

// isFPOp reports whether the op executes in the FP classes.
func isFPOp(op isa.Op) bool {
	switch isa.ClassOf(op) {
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
		return true
	}
	return false
}

// depthStep advances the dependence scoreboard by one committed
// instruction: the new chain depth is 1 past the deepest input (source
// registers, and the stored cell for loads).
func (p *profiler) depthStep(ins isa.Instr, out *vm.Outcome) {
	readInt := func(r isa.Reg) uint64 {
		if r == isa.ZeroReg {
			return 0
		}
		return p.intDepth[r]
	}
	readFP := func(r isa.Reg) uint64 {
		if r == isa.ZeroReg {
			return 0
		}
		return p.fpDepth[r]
	}
	var d uint64
	maxIn := func(v uint64) {
		if v > d {
			d = v
		}
	}
	switch {
	case ins.Op == isa.LDI || ins.Op == isa.NOP || ins.Op == isa.MB || ins.Op == isa.HALT || ins.Op == isa.BR:
		// no register inputs
	case ins.IsCondBranch():
		maxIn(readInt(ins.Ra))
	case ins.Op == isa.JMP:
		maxIn(readInt(ins.Ra))
	case ins.IsStore():
		maxIn(readInt(ins.Ra)) // address
		if ins.Op == isa.FSTQ {
			maxIn(readFP(ins.Rd))
		} else {
			maxIn(readInt(ins.Rd))
		}
	case ins.IsLoad():
		maxIn(readInt(ins.Ra))
		if !ins.IsUncached() {
			maxIn(p.memDepth[out.Addr&^7])
		}
	case ins.Op == isa.CVTQF || ins.Op == isa.ITOF:
		maxIn(readInt(ins.Ra))
	case ins.Op == isa.CVTFQ || ins.Op == isa.FTOI || ins.Op == isa.FSQRT || ins.Op == isa.FNEG:
		maxIn(readFP(ins.Ra))
	case isFPOp(ins.Op):
		maxIn(readFP(ins.Ra))
		maxIn(readFP(ins.Rb))
	default: // integer ALU, reg-reg or immediate
		maxIn(readInt(ins.Ra))
		if !hasImmOperand(ins.Op) {
			maxIn(readInt(ins.Rb))
		}
	}
	d++
	if ins.IsStore() && !ins.IsUncached() {
		for a := out.Addr &^ 7; a < out.Addr+uint64(ins.MemBytes()); a += 8 {
			p.memDepth[a] = d
		}
	}
	if ins.HasDest() && ins.Rd != isa.ZeroReg {
		if ins.DestIsFP() {
			p.fpDepth[ins.Rd] = d
		} else {
			p.intDepth[ins.Rd] = d
		}
	}
	if d > p.critical {
		p.critical = d
	}
}

// hasImmOperand reports whether the integer-ALU op's second operand is
// the immediate rather than Rb.
func hasImmOperand(op isa.Op) bool {
	switch op {
	case isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SLLI, isa.SRLI, isa.SRAI, isa.CMPEQI, isa.CMPLTI:
		return true
	}
	return false
}
