// Package vmdiff is the differential harness for the functional execution
// engine. It holds the switch oracle (SwitchStep, the original
// decode-per-step interpreter) and drives an N-lane vm.Batch and N
// independent scalar oracle threads stepped by it over the same program in
// lockstep. Every round it compares the full Outcome (which carries the
// destination write), control state (PC, Seq, halt and trap flags) and the
// pending-store byte count; full register-file sweeps run on a fixed
// cadence (SweepEvery rounds) and at each lane's halt, so the terminal
// state is always checked bit-for-bit while the per-round cost stays O(1)
// per lane — registers only change through destination writes, which the
// outcome compare covers, so the sweep cadence only bounds how long a
// write to the *wrong* register column could hide. An unobserved shadow
// batch runs alongside so the PC-grouped column fast path (taken only when
// no Observer is attached) is held to the same state identity. The vm,
// sim and fault batteries and the FuzzBatchStep fuzz target all go through
// this harness, so "batch equals scalar" is checked in one place.
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
	Corrupt func(lane int) vm.CorruptFunc
}

// Lockstep pairs a Batch with its per-lane scalar oracles. A second,
// unobserved Shadow batch rides along: with no Observer attached a batch
// round takes the PC-grouped column fast path instead of the per-lane
// handlers, and the shadow holds that path to the same bit-identity as the
// observed one (state only — an unobserved round materialises no
// outcomes). Shadow lanes share the observed lanes' corruption hooks,
// which is sound because hooks are required to be pure functions of their
// arguments.
type Lockstep struct {
	Batch   *vm.Batch
	Shadow  *vm.Batch
	Oracles []*vm.Thread

	// SweepEvery is the full register-file sweep cadence in rounds (halt
	// rounds always sweep). 1 restores the exhaustive every-round compare;
	// the default keeps long-kernel batteries affordable under -race.
	SweepEvery uint64

	outs  []vm.Outcome
	seen  []bool
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
		Shadow:     vm.NewBatch(prog, mem, n),
		Oracles:    make([]*vm.Thread, n),
		SweepEvery: 64,
		outs:       make([]vm.Outcome, n),
		seen:       make([]bool, n),
	}
	l.Batch.Tolerant = opts.Tolerant
	l.Batch.IORead = opts.IORead
	l.Batch.Observer = func(lane int, out *vm.Outcome) {
		l.outs[lane] = *out
		l.seen[lane] = true
	}
	l.Shadow.Tolerant = opts.Tolerant
	l.Shadow.IORead = opts.IORead
	for i := 0; i < n; i++ {
		th := vm.NewThread(i, prog, mem)
		th.Tolerant = opts.Tolerant
		th.IORead = opts.IORead
		if opts.Corrupt != nil {
			c := opts.Corrupt(i)
			th.Corrupt = c
			l.Batch.Corrupt[i] = c
			l.Shadow.Corrupt[i] = c
		}
		l.Oracles[i] = th
	}
	return l
}

// Round advances the batch and every live lane's oracle by one instruction
// and compares them, returning the number of live lanes and the first
// divergence found (nil when bit-equal). Outcome, control state and
// pending-byte counts are checked every round; the full register sweep
// runs every SweepEvery rounds and whenever a lane halts.
func (l *Lockstep) Round() (int, error) {
	for i := range l.seen {
		l.seen[i] = false
	}
	wasLive := make([]bool, l.Batch.N)
	for i := range wasLive {
		wasLive[i] = !l.Batch.Halted[i]
	}
	l.round++
	sweepRound := l.SweepEvery <= 1 || l.round%l.SweepEvery == 0
	live := l.Batch.Step()
	l.Shadow.Step()
	for i, th := range l.Oracles {
		if !wasLive[i] {
			continue // batch skips halted lanes; a halted oracle step is a state no-op
		}
		want := SwitchStep(th)
		if !l.seen[i] {
			return live, fmt.Errorf("vmdiff: lane %d: batch emitted no outcome at seq %d", i, want.Seq)
		}
		if want != l.outs[i] {
			return live, fmt.Errorf("vmdiff: lane %d seq %d: outcome diverged\noracle: %+v\nbatch:  %+v", i, want.Seq, want, l.outs[i])
		}
		sweep := sweepRound || l.Batch.Halted[i] || l.Shadow.Halted[i]
		if err := compareLane(l.Batch, "batch", i, th, sweep); err != nil {
			return live, err
		}
		if err := compareLane(l.Shadow, "shadow", i, th, sweep); err != nil {
			return live, err
		}
	}
	return live, nil
}

func compareLane(b *vm.Batch, label string, i int, th *vm.Thread, sweep bool) error {
	if th.PC != b.PC[i] || th.Seq != b.Seq[i] ||
		th.Halted != b.Halted[i] || th.Trapped != b.Trapped[i] {
		return fmt.Errorf("vmdiff: %s lane %d: control state diverged: oracle pc %d seq %d halted %v trapped %v, %s pc %d seq %d halted %v trapped %v",
			label, i, th.PC, th.Seq, th.Halted, th.Trapped, label, b.PC[i], b.Seq[i], b.Halted[i], b.Trapped[i])
	}
	if op, bp := th.Mem.PendingBytes(), b.Mem[i].PendingBytes(); op != bp {
		return fmt.Errorf("vmdiff: %s lane %d: overlay diverged: oracle %d pending bytes, got %d", label, i, op, bp)
	}
	if !sweep {
		return nil
	}
	for r := 0; r < isa.NumIntRegs; r++ {
		if th.IntReg[r] != b.IntReg[r][i] {
			return fmt.Errorf("vmdiff: %s lane %d: r%d = %#x, got %#x", label, i, r, th.IntReg[r], b.IntReg[r][i])
		}
	}
	for r := 0; r < isa.NumFPRegs; r++ {
		if th.FPReg[r] != b.FPReg[r][i] {
			return fmt.Errorf("vmdiff: %s lane %d: f%d = %#x, got %#x", label, i, r, th.FPReg[r], b.FPReg[r][i])
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
