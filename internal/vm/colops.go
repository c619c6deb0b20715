package vm

import "repro/internal/isa"

// Column handlers: the batch's engine. A colFn executes one static
// instruction for a whole group of lanes parked at its PC — the lane loop
// lives inside the handler, so dispatch cost is paid once per distinct PC
// per round, operand reads sweep the contiguous SoA register columns, and
// no Outcome is materialised. Each handler is specialised from the same
// semOf decode as the scalar handlers — identical corruption-point order,
// ZeroReg discard, trap/halt behaviour — and vmdiff.Lockstep holds every
// lane to the scalar switch oracle after every round: control state, the
// register each instruction writes and the bytes each store leaves in the
// lane's overlay.
//
// Lane order within a group is unspecified (diverged rounds chain PC
// buckets in reverse lane order): lanes are architecturally independent —
// private registers, private store overlays, read-only shared base memory
// — and corruption hooks are required to be pure functions of their
// arguments, so group execution order cannot be observed in final state.
//
// The handlers capture the batch's column slices and per-lane arrays at
// build time (NewBatch allocates them once), so the hot loops index
// through closure locals instead of re-loading slice headers through the
// Batch pointer every iteration.

// colFn executes one instruction for every lane in lanes.
type colFn func(lanes []int32)

// buildColOps compiles the program into the per-PC column-handler table.
func (b *Batch) buildColOps() []colFn {
	ops := make([]colFn, len(b.Prog.Code))
	for pc := range b.Prog.Code {
		ops[pc] = b.colFnOf(semOf(b.Prog.Code[pc]), uint64(pc))
	}
	return ops
}

// destCol resolves an instruction's destination column, nil for ZeroReg
// (writes to the zero register are discarded, and the column read path
// relies on the ZeroReg column never being written).
func (b *Batch) destCol(rd isa.Reg, fp bool) []uint64 {
	if rd == isa.ZeroReg {
		return nil
	}
	if fp {
		return b.FPReg[rd]
	}
	return b.IntReg[rd]
}

func (b *Batch) colFnOf(s sem, pc uint64) colFn {
	ins := s.ins
	next := pc + 1
	seqs, pcs, halts := b.Seq, b.PC, b.Halted
	cors, mems := b.Corrupt, b.Mem
	switch s.shape {
	case shNop:
		return func(lanes []int32) {
			for _, ln := range lanes {
				pcs[ln] = next
				seqs[ln]++
			}
		}

	case shHalt:
		return func(lanes []int32) {
			for _, ln := range lanes {
				halts[ln] = true
				seqs[ln]++
			}
		}

	case shALU:
		fn, imm, bImm := s.fn, uint64(ins.Imm), s.bImm
		var ac, bc []uint64
		if !s.noA {
			if s.aFP {
				ac = b.FPReg[ins.Ra]
			} else {
				ac = b.IntReg[ins.Ra]
			}
		}
		if !bImm && !s.noB {
			if s.bFP {
				bc = b.FPReg[ins.Rb]
			} else {
				bc = b.IntReg[ins.Rb]
			}
		}
		dc := b.destCol(ins.Rd, s.destFP)
		if !s.aFP && !s.bFP && !s.destFP {
			if h := b.intALUCol(ins.Op, ac, bc, dc, imm, bImm, pc, next); h != nil {
				return h
			}
		}
		return func(lanes []int32) {
			for _, ln := range lanes {
				var a, bv uint64
				if ac != nil {
					a = ac[ln]
				}
				if bImm {
					bv = imm
				} else if bc != nil {
					bv = bc[ln]
				}
				v := fn(a, bv)
				if c := cors[ln]; c != nil {
					v = c(PointResult, seqs[ln], pc, v)
				}
				if dc != nil {
					dc[ln] = v
				}
				pcs[ln] = next
				seqs[ln]++
			}
		}

	case shLoad:
		imm, byteOp := uint64(ins.Imm), s.byteOp
		ac := b.IntReg[ins.Ra]
		dc := b.destCol(ins.Rd, s.destFP)
		return func(lanes []int32) {
			for _, ln := range lanes {
				addr := ac[ln] + imm
				var v uint64
				if byteOp {
					v = uint64(mems[ln].Byte(addr))
				} else {
					v = mems[ln].Read64(addr)
				}
				if c := cors[ln]; c != nil {
					seq := seqs[ln]
					v = c(PointLoadValue, seq, pc, v)
					v = c(PointResult, seq, pc, v)
				}
				if dc != nil {
					dc[ln] = v
				}
				pcs[ln] = next
				seqs[ln]++
			}
		}

	case shLoadIO:
		imm := uint64(ins.Imm)
		ac := b.IntReg[ins.Ra]
		dc := b.destCol(ins.Rd, false)
		return func(lanes []int32) {
			for _, ln := range lanes {
				addr := ac[ln] + imm
				var v uint64
				if b.IORead != nil {
					v = b.IORead(addr)
				}
				if c := cors[ln]; c != nil {
					seq := seqs[ln]
					v = c(PointLoadValue, seq, pc, v)
					v = c(PointResult, seq, pc, v)
				}
				if dc != nil {
					dc[ln] = v
				}
				pcs[ln] = next
				seqs[ln]++
			}
		}

	case shStore, shStoreIO:
		imm, byteOp, size := uint64(ins.Imm), s.byteOp, s.size
		cached := s.shape == shStore
		ac := b.IntReg[ins.Ra]
		var sc []uint64
		if s.srcFP {
			sc = b.FPReg[ins.Rd]
		} else {
			sc = b.IntReg[ins.Rd]
		}
		return func(lanes []int32) {
			for _, ln := range lanes {
				seq := seqs[ln]
				c := cors[ln]
				addr := ac[ln] + imm
				if c != nil {
					addr = c(PointStoreAddr, seq, pc, addr)
				}
				v := sc[ln]
				if byteOp {
					v &= 0xff
				}
				if c != nil {
					v = c(PointStoreData, seq, pc, v)
				}
				if cached {
					mems[ln].Store(addr, v, size, seq)
				}
				pcs[ln] = next
				seqs[ln] = seq + 1
			}
		}

	case shBR:
		target := ins.BranchTarget(pc)
		return func(lanes []int32) {
			for _, ln := range lanes {
				pcs[ln] = target
				seqs[ln]++
			}
		}

	case shCondBr:
		cond := s.cond
		ac := b.IntReg[ins.Ra]
		target := ins.BranchTarget(pc)
		return func(lanes []int32) {
			for _, ln := range lanes {
				if cond(ac[ln]) {
					pcs[ln] = target
				} else {
					pcs[ln] = next
				}
				seqs[ln]++
			}
		}

	case shJSR:
		target := ins.BranchTarget(pc)
		dc := b.destCol(ins.Rd, false)
		return func(lanes []int32) {
			for _, ln := range lanes {
				link := next
				if c := cors[ln]; c != nil {
					link = c(PointResult, seqs[ln], pc, next)
				}
				if dc != nil {
					dc[ln] = link
				}
				pcs[ln] = target
				seqs[ln]++
			}
		}

	case shJMP:
		ac := b.IntReg[ins.Ra]
		dc := b.destCol(ins.Rd, false)
		return func(lanes []int32) {
			for _, ln := range lanes {
				// Jump target read before the link writeback (rd may alias ra).
				npc := ac[ln]
				link := next
				if c := cors[ln]; c != nil {
					link = c(PointResult, seqs[ln], pc, next)
				}
				if dc != nil {
					dc[ln] = link
				}
				pcs[ln] = npc
				seqs[ln]++
			}
		}
	}
	panic("vm: no column handler shape for opcode " + s.ins.Op.String())
}

// intALUCol returns a specialised column handler for the campaign-dominant
// integer ALU opcodes, or nil when the opcode has no specialisation (the
// generic shALU closure then applies). The generic form pays an indirect
// value-function call per lane; here the arithmetic is inlined into a tight
// compute loop that fills valBuf, and aluTail applies the shared
// corruption/writeback/advance sequence in a second pass. Identity with the
// generic form and the scalar oracle is held by TestBatchMatchesScalar,
// which forces every opcode through the column path.
func (b *Batch) intALUCol(op isa.Op, ac, bc, dc []uint64, imm uint64, bImm bool, pc, next uint64) colFn {
	vb := b.valBuf
	mk := func(compute func(lanes []int32)) colFn {
		return func(lanes []int32) {
			compute(lanes)
			b.aluTail(lanes, dc, pc, next)
		}
	}
	simm := int64(imm)
	switch {
	case op == isa.LDI && bImm:
		return mk(func(lanes []int32) {
			for i := range lanes {
				vb[i] = imm
			}
		})
	case ac == nil:
		return nil
	case bImm:
		switch op {
		case isa.ADDI:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] + imm
				}
			})
		case isa.MULI:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] * imm
				}
			})
		case isa.ANDI:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] & imm
				}
			})
		case isa.ORI:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] | imm
				}
			})
		case isa.XORI:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] ^ imm
				}
			})
		case isa.SLLI:
			sh := imm & 63
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] << sh
				}
			})
		case isa.SRLI:
			sh := imm & 63
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] >> sh
				}
			})
		case isa.SRAI:
			sh := imm & 63
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = uint64(int64(ac[ln]) >> sh)
				}
			})
		case isa.CMPEQI:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = boolBits(ac[ln] == imm)
				}
			})
		case isa.CMPLTI:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = boolBits(int64(ac[ln]) < simm)
				}
			})
		}
		return nil
	case bc != nil:
		switch op {
		case isa.ADD:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] + bc[ln]
				}
			})
		case isa.SUB:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] - bc[ln]
				}
			})
		case isa.MUL:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] * bc[ln]
				}
			})
		case isa.AND:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] & bc[ln]
				}
			})
		case isa.OR:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] | bc[ln]
				}
			})
		case isa.XOR:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] ^ bc[ln]
				}
			})
		case isa.SLL:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] << (bc[ln] & 63)
				}
			})
		case isa.SRL:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = ac[ln] >> (bc[ln] & 63)
				}
			})
		case isa.SRA:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = uint64(int64(ac[ln]) >> (bc[ln] & 63))
				}
			})
		case isa.CMPEQ:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = boolBits(ac[ln] == bc[ln])
				}
			})
		case isa.CMPLT:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = boolBits(int64(ac[ln]) < int64(bc[ln]))
				}
			})
		case isa.CMPLE:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = boolBits(int64(ac[ln]) <= int64(bc[ln]))
				}
			})
		case isa.CMPULT:
			return mk(func(lanes []int32) {
				for i, ln := range lanes {
					vb[i] = boolBits(ac[ln] < bc[ln])
				}
			})
		}
	}
	return nil
}

// aluTail applies the ALU writeback sequence for a lane group whose values
// were computed into valBuf: corruption hook at PointResult, destination
// column write (dc nil discards, matching ZeroReg), PC and Seq advance.
func (b *Batch) aluTail(lanes []int32, dc []uint64, pc, next uint64) {
	vb := b.valBuf[:len(lanes)]
	cors, seqs, pcs := b.Corrupt, b.Seq, b.PC
	if dc == nil {
		for i, ln := range lanes {
			if c := cors[ln]; c != nil {
				c(PointResult, seqs[ln], pc, vb[i])
			}
			pcs[ln] = next
			seqs[ln]++
		}
		return
	}
	for i, ln := range lanes {
		v := vb[i]
		if c := cors[ln]; c != nil {
			v = c(PointResult, seqs[ln], pc, v)
		}
		dc[ln] = v
		pcs[ln] = next
		seqs[ln]++
	}
}
