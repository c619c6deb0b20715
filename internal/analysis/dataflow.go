package analysis

import (
	"math/bits"

	"repro/internal/isa"
)

// This file is the dataflow substrate under the ACE analysis (ace.go):
// a backward may-live register analysis over the program CFG, and a
// const-prop-bounded memory liveness pass that proves stores dead. Both
// reuse the CFG, register read/write sets and constant-propagation lattice
// the Layer-2 program verifier (progverify.go) already builds, so the
// verifier and the vulnerability analysis can never disagree about program
// structure.

// RegSet is a per-program-point register set in the regBits layout: bit r
// is integer register r, bit 32+r is floating-point register r. The
// hardwired-zero registers are never members — reading R31/F31 observes the
// constant zero, not stored state, so no fault in them can propagate.
type RegSet uint64

// LiveInt reports whether integer register r is in the set.
func (s RegSet) LiveInt(r isa.Reg) bool { return regBits(s)&(intBit<<r) != 0 }

// LiveFP reports whether floating-point register r is in the set.
func (s RegSet) LiveFP(r isa.Reg) bool { return regBits(s)&(fpBit<<r) != 0 }

// Count returns the number of registers in the set.
func (s RegSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Liveness is the result of the backward may-live register analysis: for
// each program counter, the registers whose current value may still be read
// before being overwritten, on entry to (In) and exit from (Out) the
// instruction. A destination register absent from Out[pc] is dynamically
// dead at pc: the value the instruction writes is overwritten or abandoned
// on every path before any instruction reads it.
type Liveness struct {
	In  []RegSet
	Out []RegSet
	// Conservative is set when the program declares an interrupt handler:
	// the handler can run between any two instructions and reads arbitrary
	// interrupted state, so every register is treated as live everywhere
	// and nothing is provable.
	Conservative bool
}

// ComputeLiveness runs the backward may-live register analysis over a
// program. The program must pass the verifier's structural checks (encode,
// entry, branch-bounds) — AnalyzeProgram gates on that; calling this
// directly on a structurally broken program may panic on a wild target.
func ComputeLiveness(p *isa.Program) *Liveness {
	return computeLiveness(p, buildCFG(p))
}

func computeLiveness(p *isa.Program, cfg *progCFG) *Liveness {
	n := len(p.Code)
	lv := &Liveness{In: make([]RegSet, n), Out: make([]RegSet, n)}
	if p.InterruptHandler != 0 {
		lv.Conservative = true
		for pc := range lv.In {
			lv.In[pc] = RegSet(allDefined)
			lv.Out[pc] = RegSet(allDefined)
		}
		return lv
	}
	use := make([]regBits, n)
	def := make([]regBits, n)
	for pc, ins := range p.Code {
		use[pc], def[pc] = useDef(ins)
	}
	preds := make([][]int, n)
	for pc, ss := range cfg.succs {
		for _, s := range ss {
			preds[s] = append(preds[s], pc)
		}
	}
	in := make([]regBits, n)
	out := make([]regBits, n)
	inWork := make([]bool, n)
	work := make([]int, 0, n)
	// Seed every pc in reverse order so backward facts propagate in few
	// passes; HALT and the last instruction have no successors, so their
	// live-out is empty (nothing observes the register file after the run).
	for pc := 0; pc < n; pc++ {
		work = append(work, pc)
		inWork[pc] = true
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[pc] = false
		var o regBits
		for _, s := range cfg.succs[pc] {
			o |= in[s]
		}
		out[pc] = o
		newIn := use[pc] | (o &^ def[pc])
		if newIn == in[pc] {
			continue
		}
		in[pc] = newIn
		for _, pr := range preds[pc] {
			if !inWork[pr] {
				inWork[pr] = true
				work = append(work, pr)
			}
		}
	}
	for pc := range in {
		lv.In[pc] = RegSet(in[pc])
		lv.Out[pc] = RegSet(out[pc])
	}
	return lv
}

// MemLiveness is the result of the const-prop-bounded memory liveness
// analysis: which reachable stores write bytes that are provably never read
// before being fully overwritten. Note the distinction from register
// deadness: a dead store is architecturally benign, but its data and
// address still cross the sphere-of-replication boundary through the store
// comparator, so dead-store injection sites remain detection-ACE and the
// ACE analysis never classifies them masked. The list is exposed for
// profiling and kernel hygiene only.
type MemLiveness struct {
	// DeadStores are the PCs of reachable stores whose written span is
	// dead: on every path, the span is fully overwritten by a later store
	// before any load overlaps it and before the program can halt.
	DeadStores []int
	// Tracked counts the distinct (address, size) store spans constant
	// propagation resolved; untracked stores (varying address) are never
	// classified and never kill a tracked span.
	Tracked int
	// Conservative mirrors Liveness.Conservative: an interrupt handler
	// makes every span live everywhere.
	Conservative bool
}

// ComputeMemLiveness runs the memory liveness analysis over a program (see
// ComputeLiveness for the structural precondition).
func ComputeMemLiveness(p *isa.Program) *MemLiveness {
	cfg := buildCFG(p)
	return computeMemLiveness(p, cfg, reachable(p, cfg))
}

func computeMemLiveness(p *isa.Program, cfg *progCFG, reach []bool) *MemLiveness {
	ml := &MemLiveness{}
	if p.InterruptHandler != 0 {
		ml.Conservative = true
		return ml
	}
	n := len(p.Code)
	consts, seen := constFixpoint(p, cfg)

	// The span universe: every distinct (ea, size) a reachable cached store
	// writes through a statically-known address. Identical spans share one
	// bit — a later store to the same span is exactly the overwrite that
	// kills the earlier one.
	type span struct{ ea, size uint64 }
	index := map[span]int{}
	var spans []span
	storeSpan := make([]int, n)
	for pc := range storeSpan {
		storeSpan[pc] = -1
	}
	for pc, ins := range p.Code {
		if !reach[pc] || !seen[pc] || !ins.IsStore() || ins.IsUncached() {
			continue
		}
		base := consts[pc].get(ins.Ra)
		if !base.known {
			continue
		}
		sp := span{ea: base.v + uint64(ins.Imm), size: uint64(ins.MemBytes())}
		id, ok := index[sp]
		if !ok {
			id = len(spans)
			index[sp] = id
			spans = append(spans, sp)
		}
		storeSpan[pc] = id
	}
	ml.Tracked = len(spans)
	if len(spans) == 0 {
		return ml
	}

	overlaps := func(aEA, aSize, bEA, bSize uint64) bool {
		return aEA < bEA+bSize && bEA < aEA+aSize
	}
	covers := func(outerEA, outerSize, innerEA, innerSize uint64) bool {
		return outerEA <= innerEA && innerEA+innerSize <= outerEA+outerSize
	}

	words := (len(spans) + 63) / 64
	genAll := make([]uint64, words)
	for id := range spans {
		genAll[id/64] |= 1 << (id % 64)
	}
	// gen[pc]: spans whose bytes the instruction may read. kill[pc]: spans
	// the instruction fully overwrites. A load through a varying address may
	// read anything; HALT makes final memory observable, so it reads
	// everything too.
	gen := make([][]uint64, n)
	kill := make([][]uint64, n)
	for pc, ins := range p.Code {
		switch {
		case ins.Op == isa.HALT:
			gen[pc] = genAll
		case ins.IsLoad() && !ins.IsUncached():
			base := constVal{}
			if seen[pc] {
				base = consts[pc].get(ins.Ra)
			}
			if !base.known {
				gen[pc] = genAll
				continue
			}
			ea, size := base.v+uint64(ins.Imm), uint64(ins.MemBytes())
			g := make([]uint64, words)
			for id, sp := range spans {
				if overlaps(ea, size, sp.ea, sp.size) {
					g[id/64] |= 1 << (id % 64)
				}
			}
			gen[pc] = g
		case ins.IsStore() && !ins.IsUncached():
			if storeSpan[pc] < 0 {
				continue // varying address: writes something, kills nothing provably
			}
			sp := spans[storeSpan[pc]]
			k := make([]uint64, words)
			for id, other := range spans {
				if covers(sp.ea, sp.size, other.ea, other.size) {
					k[id/64] |= 1 << (id % 64)
				}
			}
			kill[pc] = k
		}
	}

	preds := make([][]int, n)
	for pc, ss := range cfg.succs {
		for _, s := range ss {
			preds[s] = append(preds[s], pc)
		}
	}
	in := make([][]uint64, n)
	out := make([][]uint64, n)
	for pc := 0; pc < n; pc++ {
		in[pc] = make([]uint64, words)
		out[pc] = make([]uint64, words)
	}
	inWork := make([]bool, n)
	work := make([]int, 0, n)
	for pc := 0; pc < n; pc++ {
		work = append(work, pc)
		inWork[pc] = true
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[pc] = false
		o := out[pc]
		for w := range o {
			o[w] = 0
		}
		for _, s := range cfg.succs[pc] {
			for w, v := range in[s] {
				o[w] |= v
			}
		}
		changed := false
		for w := range o {
			ni := o[w]
			if kill[pc] != nil {
				ni &^= kill[pc][w]
			}
			if gen[pc] != nil {
				ni |= gen[pc][w]
			}
			if ni != in[pc][w] {
				in[pc][w] = ni
				changed = true
			}
		}
		if !changed {
			continue
		}
		for _, pr := range preds[pc] {
			if !inWork[pr] {
				inWork[pr] = true
				work = append(work, pr)
			}
		}
	}

	for pc := 0; pc < n; pc++ {
		id := storeSpan[pc]
		if id < 0 {
			continue
		}
		if out[pc][id/64]&(1<<(id%64)) == 0 {
			ml.DeadStores = append(ml.DeadStores, pc)
		}
	}
	return ml
}
