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
// stream. The measurement is a pure function of the outcome sequence.
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
	if ins.IsFP() {
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

// Characterize replays the kernel functionally to its HALT on a scalar
// vm.Thread and measures the profile. An error means the kernel overran
// its declared bound — the generator's halt guarantee failed.
func Characterize(k *Kernel) (*Profile, error) {
	memImg := vm.NewMemory()
	vm.Load(k.Prog, memImg)
	th := vm.NewThread(0, k.Prog, memImg)
	p := newProfiler()

	var out vm.Outcome
	for !th.Halted {
		if th.Seq >= characterizeCap {
			return nil, fmt.Errorf("progen: %s did not halt within %d instructions (declared bound %d)",
				k.Prog.Name, uint64(characterizeCap), k.MaxDynInstr)
		}
		th.StepInto(&out)
		p.step(&out)
	}
	if th.Seq > k.MaxDynInstr {
		return nil, fmt.Errorf("progen: %s halted at %d dynamic instructions, beyond its declared bound %d",
			k.Prog.Name, th.Seq, k.MaxDynInstr)
	}
	return p.finish(k, th.Seq), nil
}

// depthStep advances the dependence scoreboard by one committed
// instruction: the new chain depth is 1 past the deepest input (the
// registers its opcode's table row marks as sources, and the stored cell
// for loads).
func (p *profiler) depthStep(ins isa.Instr, out *vm.Outcome) {
	row := ins.Op.Info()
	d := max(p.depth(ins.Ra, row.Ra), p.depth(ins.Rb, row.Rb), p.depth(ins.Rd, row.Rd))
	if ins.IsLoad() && !ins.IsUncached() {
		d = max(d, p.memDepth[out.Addr&^7])
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

// depth is the chain depth of one register field's input: 0 unless the
// opcode reads the field. The hardwired zero reads 0 too, since depthStep
// never records a write to it.
func (p *profiler) depth(r isa.Reg, role isa.Role) uint64 {
	switch role {
	case isa.IntSrc:
		return p.intDepth[r]
	case isa.FPSrc:
		return p.fpDepth[r]
	}
	return 0
}
