package vm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// regFiles is a thread's register state: [0] the integer file, [1] FP.
type regFiles [2][isa.NumIntRegs]uint64

// effect is everything one executed instruction changes or reports. The
// outcome's Instr is cleared, since a changed immediate is part of it.
type effect struct {
	out  Outcome
	regs regFiles
}

// execOne executes ins, alone at PC 0, from the register state rf.
func execOne(ins isa.Instr, rf regFiles, mem *Memory) effect {
	th := NewThread(0, &isa.Program{Name: "op", Code: []isa.Instr{ins}}, mem)
	th.IntReg, th.FPReg = rf[0], rf[1]
	out := th.Step()
	out.Instr = isa.Instr{}
	return effect{out, regFiles{th.IntReg, th.FPReg}}
}

// sameExcept reports whether two effects agree apart from the final value
// of register r in file f, the one the caller changed beforehand.
func sameExcept(a, b effect, f int, r isa.Reg) bool {
	a.regs[f][r], b.regs[f][r] = 0, 0
	return a == b
}

// randReg draws a register value in file f: zero, a small integer, or a
// random value. FP values are finite.
func randReg(rng *rand.Rand, f int) uint64 {
	small := rng.Intn(9) - 4
	switch k := rng.Intn(4); {
	case k == 0:
		return 0
	case k == 1 && f == 0:
		return uint64(small)
	case k == 1:
		return math.Float64bits(float64(small))
	case f == 0:
		return rng.Uint64()
	}
	return math.Float64bits(rng.NormFloat64() * 1e3)
}

// TestOpTableMatchesSemantics checks every row of the isa opcode table
// against what the opcode does when executed. Each trial runs one
// instruction, with distinct registers in its three fields, from random
// finite register values; every third trial gives all registers and the
// immediate one small value, so that compares stay sensitive. It checks
// that:
//   - changing a register the table lists as a source changes the effect
//     in some trial, and changing any other register, in either file,
//     never does;
//   - only the table's destination register, in the table's file, is
//     written, and it receives the outcome's DestVal;
//   - the immediate matters in some trial exactly when the table lists it;
//   - the next PC is one the table's control flow allows, each way the
//     table lists is taken in some trial, an op with no flow halts, and an
//     op writes pc+1 on every trial exactly when the table lists a link;
//   - a memory op accesses the table's width.
func TestOpTableMatchesSemantics(t *testing.T) {
	const trials = 60
	rng := rand.New(rand.NewSource(1))
	mem := NewMemory()
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		row := op.Info()
		roles := [3]isa.Role{row.Rd, row.Ra, row.Rb}
		var fieldMatters [3]bool
		immMatters, alwaysLinks := false, true
		var flowSeen isa.Flow
		for trial := 0; trial < trials; trial++ {
			regs := rng.Perm(isa.ZeroReg)
			ins := isa.Instr{Op: op, Rd: isa.Reg(regs[0]), Ra: isa.Reg(regs[1]), Rb: isa.Reg(regs[2]),
				Imm: int64(rng.Intn(17) - 8)}
			fields := [3]isa.Reg{ins.Rd, ins.Ra, ins.Rb}
			var rf regFiles
			if trial%3 == 0 {
				v := rng.Intn(9) - 4
				for r := range rf[0] {
					rf[0][r], rf[1][r] = uint64(v), math.Float64bits(float64(v))
				}
				ins.Imm = int64(v)
			} else {
				for f := range rf {
					for r := range rf[f] {
						rf[f][r] = randReg(rng, f)
					}
				}
			}
			base := execOne(ins, rf, mem)

			for f := range rf {
				for r := range rf[f] {
					reg := isa.Reg(r)
					field := -1
					for i, role := range roles {
						if role.Reads() && fields[i] == reg && (role == isa.FPSrc) == (f == 1) {
							field = i
						}
					}
					changed := rf
					for changed[f][r] == rf[f][r] {
						changed[f][r] = randReg(rng, f)
					}
					if sameExcept(base, execOne(ins, changed, mem), f, reg) {
						continue
					}
					if field < 0 {
						t.Errorf("%v: changing %s, which the table does not list as a source, changed the effect", ins, regName(f, reg))
						continue
					}
					fieldMatters[field] = true
				}
			}

			other := ins
			for other.Imm == ins.Imm {
				other.Imm = int64(rng.Intn(17) - 8)
			}
			if execOne(other, rf, mem) != base {
				if !row.Imm {
					t.Errorf("%v: the immediate changed the effect, but the table does not list it", ins)
				}
				immMatters = true
			}

			for f := range rf {
				for r := range rf[f] {
					reg, got := isa.Reg(r), base.regs[f][r]
					isDest := row.Rd.Writes() && reg == ins.Rd && (row.Rd == isa.FPDst) == (f == 1)
					switch {
					case isDest && got != base.out.DestVal:
						t.Errorf("%v: destination %s holds %#x, want DestVal %#x", ins, regName(f, reg), got, base.out.DestVal)
					case !isDest && got != rf[f][r]:
						t.Errorf("%v: wrote %s, which the table does not list as the destination", ins, regName(f, reg))
					}
				}
			}

			// The PC each way out leads to. A way is seen when the next PC
			// is its PC and no other way's.
			ways := [...]struct {
				flow isa.Flow
				pc   uint64
			}{{isa.FallsThrough, 1}, {isa.Direct, ins.BranchTarget(0)}, {isa.Indirect, rf[0][ins.Ra]}}
			switch {
			case row.Flow == 0:
				if !base.out.Halted {
					t.Errorf("%v: the table lists no successor, but the thread did not halt", ins)
				}
			case base.out.Halted:
				t.Errorf("%v: halted, but the table lists flow %b", ins, row.Flow)
			default:
				var matches isa.Flow
				for _, w := range ways {
					if base.out.NextPC == w.pc {
						matches |= w.flow
					}
				}
				if matches&row.Flow == 0 {
					t.Errorf("%v: next PC %d is not allowed by the table's flow %b", ins, base.out.NextPC, row.Flow)
				}
				if matches&(matches-1) == 0 {
					flowSeen |= matches
				}
			}
			alwaysLinks = alwaysLinks && row.Rd.Writes() && base.out.DestVal == 1
			if base.out.Size != int(row.Mem) {
				t.Errorf("%v: accessed %d bytes, the table says %d", ins, base.out.Size, row.Mem)
			}
		}
		for i, role := range roles {
			if role.Reads() && !fieldMatters[i] {
				t.Errorf("%v: the table lists %s as a source, but changing it never changed the effect", op, [3]string{"Rd", "Ra", "Rb"}[i])
			}
		}
		if row.Imm && !immMatters {
			t.Errorf("%v: the table lists the immediate, but changing it never changed the effect", op)
		}
		if want := row.Flow &^ isa.Link; flowSeen != want {
			t.Errorf("%v: trials left by flow %b, the table lists %b", op, flowSeen, want)
		}
		if alwaysLinks != (row.Flow&isa.Link != 0) {
			t.Errorf("%v: writes pc+1 on every trial: %v; the table lists a link: %v", op, alwaysLinks, row.Flow&isa.Link != 0)
		}
	}
}

func regName(f int, r isa.Reg) string { return fmt.Sprintf("%c%d", "rf"[f], r) }
