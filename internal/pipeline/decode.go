package pipeline

import "repro/internal/isa"

// noReg marks an absent source/destination register in a decode record.
const noReg = 0xff

// decodedInst is the static decode record for one program instruction:
// everything the per-cycle path previously re-derived from the opcode for
// every dynamic instance (class, execution latency, source/destination
// registers, port class). It is computed once per static instruction at
// program load and indexed by PC, so fetch, rename and issue read a flat
// table instead of running the isa switch chains per dynamic instruction.
type decodedInst struct {
	kind classKind
	// lat is the execution latency after register read (classLat applied).
	lat uint64
	// isFP marks the FP port class (kindFPAdd/Mul/Div) for the issue-stage
	// FP bandwidth limit.
	isFP bool

	// Source registers (noReg = absent) and their register-file selectors.
	srcA, srcB, srcD uint8
	aFP, bFP, dFP    bool

	// Destination register (noReg = none; stores and branches don't
	// rename).
	dest   uint8
	destFP bool
}

// decodeOne builds the decode record for a single instruction under cfg's
// latency table. It is the single source of truth both for the per-program
// tables and for the out-of-image fallback path (a corrupted jump target in
// a fault-injection run can fetch from outside the code image).
func decodeOne(cfg *Config, ins isa.Instr) decodedInst {
	kind := kindOf(ins.Op)
	dec := decodedInst{
		kind: kind,
		lat:  cfg.classLat(kind),
		isFP: kind == kindFPAdd || kind == kindFPMul || kind == kindFPDiv,
		srcA: noReg, srcB: noReg, srcD: noReg,
		dest: noReg,
	}
	row := ins.Op.Info()
	dec.srcA, dec.aFP = srcSlot(ins.Ra, row.Ra)
	dec.srcB, dec.bFP = srcSlot(ins.Rb, row.Rb)
	dec.srcD, dec.dFP = srcSlot(ins.Rd, row.Rd) // a store's data
	if ins.HasDest() && ins.Rd != isa.ZeroReg {
		dec.dest, dec.destFP = uint8(ins.Rd), ins.DestIsFP()
	}
	return dec
}

// srcSlot is the decode record's form of one register field: noReg unless
// the opcode reads the field and it names a register other than the
// hardwired zero.
func srcSlot(r isa.Reg, role isa.Role) (uint8, bool) {
	if !role.Reads() || r == isa.ZeroReg {
		return noReg, false
	}
	return uint8(r), role == isa.FPSrc
}

// buildDecode precomputes the decode table for a program's code image.
func buildDecode(cfg *Config, prog *isa.Program) []decodedInst {
	table := make([]decodedInst, len(prog.Code))
	for pc, ins := range prog.Code {
		table[pc] = decodeOne(cfg, ins)
	}
	return table
}

// decodeOf returns the decode record for a dynamic instruction. PCs inside
// the code image hit the precomputed table; anything else (tolerant-mode
// wild fetches) decodes on the fly into scratch, a value on the caller's
// stack, so the fallback stays allocation-free.
func (c *Context) decodeOf(cfg *Config, d *dynInst, scratch *decodedInst) *decodedInst {
	if pc := d.out.PC; pc < uint64(len(c.decode)) {
		return &c.decode[pc]
	}
	*scratch = decodeOne(cfg, d.out.Instr)
	return scratch
}

// kindAt returns the instruction class at pc (table hit) or derives it from
// the opcode (fallback).
func (c *Context) kindAt(pc uint64, op isa.Op) classKind {
	if pc < uint64(len(c.decode)) {
		return c.decode[pc].kind
	}
	return kindOf(op)
}

// latOf returns the execution latency of d's class.
func (c *Context) latOf(cfg *Config, d *dynInst) uint64 {
	if pc := d.out.PC; pc < uint64(len(c.decode)) {
		return c.decode[pc].lat
	}
	return cfg.classLat(d.kind)
}
