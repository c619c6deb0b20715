package pipeline

import "repro/internal/isa"

// noReg marks an absent source/destination register in a decode record.
const noReg = 0xff

// decodedInst is the static decode record for one program instruction:
// what the per-cycle path would otherwise re-derive from the opcode and
// the configuration for every dynamic instance (execution latency,
// source/destination registers). It is computed once per static
// instruction at program load and indexed by PC, so rename and issue read
// a flat table.
type decodedInst struct {
	// lat is the execution latency after register read (classLat applied).
	lat uint64

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
	row := ins.Op.Info()
	dec := decodedInst{
		lat:  cfg.classLat(row.Class),
		srcA: noReg, srcB: noReg, srcD: noReg,
		dest: noReg,
	}
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

// latOf returns the execution latency of d's class.
func (c *Context) latOf(cfg *Config, d *dynInst) uint64 {
	if pc := d.out.PC; pc < uint64(len(c.decode)) {
		return c.decode[pc].lat
	}
	return cfg.classLat(d.kind)
}
