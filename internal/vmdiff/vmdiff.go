// Package vmdiff is the differential harness for the functional execution
// engine. It holds the switch oracle (SwitchStep, the original
// decode-per-step interpreter) and drives an N-lane vm.Batch and N
// independent scalar oracle threads stepped by it over the same program in
// lockstep. Every round it checks each lane against the architectural
// effects of its oracle's outcome: control state (PC, Seq, halt and trap
// flags), the pending-store byte count, the register the instruction
// wrote and the bytes a cached store left in the lane's overlay. Full
// register-file sweeps run on a fixed cadence (SweepEvery rounds) and at
// each lane's halt, so the terminal state is always checked bit-for-bit
// while the per-round cost stays O(1) per lane — registers only change
// through destination writes, which the per-round check covers, so the
// sweep cadence only bounds how long a write to the *wrong* register
// column could hide. The vm, sim and fault batteries and the FuzzBatchStep
// fuzz target all go through this harness, so "batch equals scalar" is
// checked in one place.
package vmdiff

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/vm"
)

// Options configure one lockstep comparison.
type Options struct {
	// Tolerant lets lanes whose PC leaves the code image trap instead of
	// panicking (fault-injection lanes need it: a corrupted jump target
	// can legitimately leave the image).
	Tolerant bool
	// IORead services uncached loads on the batch and every oracle.
	IORead func(addr uint64) uint64
	// Corrupt, when non-nil, supplies each lane's fault-injection hook
	// (shared by the lane and its oracle; nil return = fault-free lane).
	// Hooks must be pure functions of their arguments: the batch and the
	// oracle each call them.
	Corrupt func(lane int) vm.CorruptFunc
}

// Lockstep pairs a Batch with its per-lane scalar oracles.
type Lockstep struct {
	Batch   *vm.Batch
	Oracles []*vm.Thread

	// SweepEvery is the full register-file sweep cadence in rounds (halt
	// rounds always sweep). 1 restores the exhaustive every-round compare;
	// the default keeps long-kernel batteries affordable under -race.
	SweepEvery uint64

	round uint64
}

// NewLockstep builds an n-lane batch and n scalar oracle threads (stepped
// by SwitchStep) over prog, all overlaying one shared base memory holding
// the program's data image.
func NewLockstep(prog *isa.Program, n int, opts Options) *Lockstep {
	mem := vm.NewMemory()
	vm.Load(prog, mem)
	l := &Lockstep{
		Batch:      vm.NewBatch(prog, mem, n),
		Oracles:    make([]*vm.Thread, n),
		SweepEvery: 64,
	}
	l.Batch.Tolerant = opts.Tolerant
	l.Batch.IORead = opts.IORead
	for i := 0; i < n; i++ {
		th := vm.NewThread(i, prog, mem)
		th.Tolerant = opts.Tolerant
		th.IORead = opts.IORead
		if opts.Corrupt != nil {
			c := opts.Corrupt(i)
			th.Corrupt = c
			l.Batch.Corrupt[i] = c
		}
		l.Oracles[i] = th
	}
	return l
}

// Round advances the batch and every live lane's oracle by one instruction
// and compares them, returning the number of live lanes and the first
// divergence found (nil when bit-equal). Control state, pending-byte
// counts, the destination register and a cached store's bytes are checked
// every round; the full register sweep runs every SweepEvery rounds and
// whenever a lane halts.
func (l *Lockstep) Round() (int, error) {
	b := l.Batch
	l.round++
	sweepRound := l.SweepEvery <= 1 || l.round%l.SweepEvery == 0
	live := b.Step()
	for i, th := range l.Oracles {
		if th.Halted {
			// The batch skips halted lanes, and every earlier round held
			// the lane's halt flag equal to its oracle's.
			continue
		}
		want := SwitchStep(th)
		if err := checkLane(b, i, th, &want); err != nil {
			return live, err
		}
		if sweepRound || th.Halted {
			if err := sweepLane(b, i, th); err != nil {
				return live, err
			}
		}
	}
	return live, nil
}

// checkLane compares lane i of b, just stepped, with the architectural
// effects of its oracle's outcome want.
func checkLane(b *vm.Batch, i int, th *vm.Thread, want *vm.Outcome) error {
	if th.PC != b.PC[i] || th.Seq != b.Seq[i] ||
		th.Halted != b.Halted[i] || th.Trapped != b.Trapped[i] {
		return fmt.Errorf("vmdiff: lane %d seq %d: control state diverged: oracle pc %d seq %d halted %v trapped %v, batch pc %d seq %d halted %v trapped %v",
			i, want.Seq, th.PC, th.Seq, th.Halted, th.Trapped, b.PC[i], b.Seq[i], b.Halted[i], b.Trapped[i])
	}
	if op, bp := th.Mem.PendingBytes(), b.Mem[i].PendingBytes(); op != bp {
		return fmt.Errorf("vmdiff: lane %d seq %d: oracle has %d pending bytes, batch %d", i, want.Seq, op, bp)
	}
	if want.Trap {
		return nil
	}
	ins := want.Instr
	if ins.HasDest() && !ins.DestDiscarded() {
		col, file := b.IntReg[ins.Rd], "r"
		if ins.DestIsFP() {
			col, file = b.FPReg[ins.Rd], "f"
		}
		if col[i] != want.DestVal {
			return fmt.Errorf("vmdiff: lane %d seq %d: %s%d = %#x, oracle %#x", i, want.Seq, file, ins.Rd, col[i], want.DestVal)
		}
	}
	if ins.IsStore() && !ins.IsUncached() {
		for k := 0; k < want.Size; k++ {
			addr := want.Addr + uint64(k)
			if got, exp := b.Mem[i].Byte(addr), byte(want.Value>>(8*k)); got != exp {
				return fmt.Errorf("vmdiff: lane %d seq %d: store byte %#x = %#x, oracle %#x", i, want.Seq, addr, got, exp)
			}
		}
	}
	return nil
}

// sweepLane compares every register of lane i of b with its oracle's.
func sweepLane(b *vm.Batch, i int, th *vm.Thread) error {
	for r := 0; r < isa.NumIntRegs; r++ {
		if th.IntReg[r] != b.IntReg[r][i] {
			return fmt.Errorf("vmdiff: lane %d: r%d = %#x, oracle %#x", i, r, b.IntReg[r][i], th.IntReg[r])
		}
	}
	for r := 0; r < isa.NumFPRegs; r++ {
		if th.FPReg[r] != b.FPReg[r][i] {
			return fmt.Errorf("vmdiff: lane %d: f%d = %#x, oracle %#x", i, r, b.FPReg[r][i], th.FPReg[r])
		}
	}
	return nil
}

// Run drives rounds until every lane halts or maxRounds is reached,
// returning the first divergence (nil = bit-equal throughout).
func (l *Lockstep) Run(maxRounds uint64) error {
	for round := uint64(0); round < maxRounds; round++ {
		live, err := l.Round()
		if err != nil {
			return err
		}
		if live == 0 {
			return nil
		}
	}
	return nil
}

// laneCorrupt derives a deterministic per-lane single-bit-flavoured
// corruption hook from salt. Lane 0 is always fault-free — the campaign
// shape: one golden lane, injected siblings.
func laneCorrupt(salt uint64) func(lane int) vm.CorruptFunc {
	return func(lane int) vm.CorruptFunc {
		if lane == 0 {
			return nil
		}
		mix := salt ^ (uint64(lane) * 0x9E3779B97F4A7C15)
		return func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
			if (seq+mix)%13 == uint64(lane)%13 {
				return v ^ (1 << ((mix + uint64(point) + pc) % 64))
			}
			return v
		}
	}
}

// VerifyKernel locksteps one generated kernel: lane 0 fault-free, the
// remaining lanes under deterministic per-lane corruption, all compared
// against scalar oracles to HALT (or trap). maxRounds bounds runaway
// divergence; generated kernels declare a dynamic bound well below it.
func VerifyKernel(k *progen.Kernel, lanes int, salt uint64, maxRounds uint64) error {
	l := NewLockstep(k.Prog, lanes, Options{
		Tolerant: true, // corrupted jump targets may leave the image
		Corrupt:  laneCorrupt(salt),
	})
	if err := l.Run(maxRounds); err != nil {
		return fmt.Errorf("%s (salt %#x): %w", k.Prog.Name, salt, err)
	}
	return nil
}

// VerifyCorpus locksteps a whole generated corpus (the standard campaign
// corpus shape: CorpusSeeds(corpusSeed, kernels), each kernel batched over
// `lanes` lanes), returning the first divergence.
func VerifyCorpus(corpusSeed uint64, kernels, lanes int) error {
	for _, seed := range progen.CorpusSeeds(corpusSeed, kernels) {
		k := progen.Generate(seed)
		if err := VerifyKernel(k, lanes, seed, 4*k.MaxDynInstr+64); err != nil {
			return err
		}
	}
	return nil
}
