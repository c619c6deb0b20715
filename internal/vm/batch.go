package vm

import (
	"fmt"

	"repro/internal/isa"
)

// Batch advances N independent threads of the same program in lockstep
// rounds with structure-of-arrays state: one slice per register column
// (IntReg[r][lane]), per-lane PC/Seq/halt flags, and one private store
// overlay per lane over a single shared committed memory. The layout keeps
// each register column cache-resident while a round sweeps the lanes, and
// the per-PC handler table is shared by every lane, so campaign replays
// (N trials of one kernel, one injection each) and corpus verification
// amortize predecode across the whole batch.
//
// A round runs through per-PC column handlers (colops.go), specialised
// from the same semOf decode as Thread's handlers: same corruption-point
// order, same trap and halt behaviour. The vmdiff battery holds every lane
// bit-equal to a scalar oracle thread, instruction by instruction.
type Batch struct {
	// Prog is the program every lane executes.
	Prog *isa.Program
	// N is the lane count.
	N int

	PC  []uint64
	Seq []uint64
	// IntReg and FPReg are column-major: IntReg[r][lane]. The ZeroReg
	// column is never written, so lane reads skip the zero-register check.
	IntReg [isa.NumIntRegs][]uint64
	FPReg  [isa.NumFPRegs][]uint64

	Halted  []bool
	Trapped []bool

	// Mem holds each lane's private view: the shared committed memory
	// plus the lane's own store overlay.
	Mem []*Overlay

	// Corrupt holds each lane's fault-injection hook (nil = fault-free).
	Corrupt []CorruptFunc

	// Tolerant applies Thread.Tolerant to every lane: an out-of-image PC
	// halts the lane with Trap instead of panicking.
	Tolerant bool

	// IORead services uncached loads for every lane (the lanes execute
	// the same program against the same device model). nil reads as zero.
	IORead func(addr uint64) uint64

	cols []colFn // one handler call per PC group
	// colHalts[pc] marks instructions that can halt a lane (HALT); rounds
	// executing only non-halting in-image instructions skip live-list
	// compaction.
	colHalts []bool

	regBack []uint64 // one backing array for all register columns

	// liveList holds the lanes not yet halted, ascending. Step maintains
	// it (Halted is engine-written state; campaigns park lanes by letting
	// them run to HALT or trap).
	liveList []int32

	// PC-grouping scratch for diverged rounds: live lanes are
	// bucketed by PC (headByPC chains through nextLane), and each bucket
	// executes through one column-handler call. All preallocated; the hot
	// loop does not grow them.
	headByPC []int32
	nextLane []int32
	touched  []uint64
	groupBuf []int32

	// valBuf carries computed values from a specialised integer-ALU compute
	// loop to the shared writeback tail (see intALUCol), indexed by position
	// in the lane group.
	valBuf []uint64
}

// NewBatch creates an n-lane batch at the program entry. Every lane
// overlays the same base memory, which must already hold the program's
// data image (see Load).
func NewBatch(prog *isa.Program, mem *Memory, n int) *Batch {
	b := &Batch{
		Prog:    prog,
		N:       n,
		PC:      make([]uint64, n),
		Seq:     make([]uint64, n),
		Halted:  make([]bool, n),
		Trapped: make([]bool, n),
		Mem:     make([]*Overlay, n),
		Corrupt: make([]CorruptFunc, n),
		regBack: make([]uint64, (isa.NumIntRegs+isa.NumFPRegs)*n),
	}
	for r := 0; r < isa.NumIntRegs; r++ {
		b.IntReg[r] = b.regBack[r*n : (r+1)*n : (r+1)*n]
	}
	off := isa.NumIntRegs * n
	for r := 0; r < isa.NumFPRegs; r++ {
		b.FPReg[r] = b.regBack[off+r*n : off+(r+1)*n : off+(r+1)*n]
	}
	for lane := 0; lane < n; lane++ {
		b.PC[lane] = prog.Entry
		b.Mem[lane] = NewOverlay(mem)
	}
	b.colHalts = make([]bool, len(prog.Code))
	for pc, ins := range prog.Code {
		b.colHalts[pc] = ins.Op == isa.HALT
	}
	b.liveList = make([]int32, n)
	for i := range b.liveList {
		b.liveList[i] = int32(i)
	}
	b.headByPC = make([]int32, len(prog.Code))
	for i := range b.headByPC {
		b.headByPC[i] = -1
	}
	b.nextLane = make([]int32, n)
	b.touched = make([]uint64, 0, n)
	b.groupBuf = make([]int32, 0, n)
	b.valBuf = make([]uint64, n)
	b.cols = b.buildColOps()
	return b
}

// Live returns the number of lanes still running.
func (b *Batch) Live() int {
	live := 0
	for _, h := range b.Halted {
		if !h {
			live++
		}
	}
	return live
}

// Step advances every live lane by one instruction and returns the number
// of lanes still live afterwards. Halted lanes are skipped (a halted
// scalar Thread's Step is a state no-op, so skipping keeps batch and
// scalar state equal). A lane whose PC has left the code image traps
// (Tolerant) or panics, exactly as Thread.StepInto does.
//
// The round runs SIMT-style: live lanes are bucketed by PC and each bucket
// executes through one column-handler call, so dispatch is paid once per
// distinct PC instead of once per lane, the handler sweeps contiguous
// register columns, and no Outcome is materialised. Campaign replays keep
// most lanes at the same PC for most rounds (one injected bit flip rarely
// redirects control flow at once), so a round is typically one or two
// handler calls.
func (b *Batch) Step() int {
	live := b.liveList
	if len(live) == 0 {
		return 0
	}
	codeLen := uint64(len(b.Prog.Code))
	pc0 := b.PC[live[0]]
	uniform := true
	for _, ln := range live[1:] {
		if b.PC[ln] != pc0 {
			uniform = false
			break
		}
	}
	if uniform && pc0 < codeLen {
		b.cols[pc0](live)
		if !b.colHalts[pc0] {
			// Nothing halted: an in-image non-HALT instruction cannot park
			// a lane, so the live list is still exact.
			return len(live)
		}
	} else {
		b.stepDiverged(live, codeLen)
	}
	return b.compactLive()
}

// stepDiverged executes one round for lanes parked at different PCs:
// bucket by PC (headByPC chains through nextLane), one column-handler call
// per bucket. Out-of-image lanes trap.
func (b *Batch) stepDiverged(live []int32, codeLen uint64) {
	touched := b.touched[:0]
	for _, lane := range live {
		pc := b.PC[lane]
		if pc >= codeLen {
			b.trapLane(int(lane))
			continue
		}
		if b.headByPC[pc] < 0 {
			touched = append(touched, pc)
		}
		b.nextLane[lane] = b.headByPC[pc]
		b.headByPC[pc] = lane
	}
	b.touched = touched
	for _, pc := range touched {
		g := b.groupBuf[:0]
		for i := b.headByPC[pc]; i >= 0; i = b.nextLane[i] {
			g = append(g, i)
		}
		b.headByPC[pc] = -1
		b.cols[pc](g)
	}
}

// compactLive drops freshly halted lanes from the live list and returns
// the live count.
func (b *Batch) compactLive() int {
	live := b.liveList
	k := 0
	for _, ln := range live {
		if !b.Halted[ln] {
			live[k] = ln
			k++
		}
	}
	b.liveList = live[:k]
	return k
}

// Run executes up to maxRounds lockstep rounds (one instruction per live
// lane per round), stopping early when every lane has halted, and returns
// the number of rounds executed.
func (b *Batch) Run(maxRounds uint64) uint64 {
	live := b.Live()
	var rounds uint64
	for ; rounds < maxRounds && live > 0; rounds++ {
		live = b.Step()
	}
	return rounds
}

// trapLane halts a lane whose PC has left the code image, or panics when
// the batch is not Tolerant.
func (b *Batch) trapLane(lane int) {
	if !b.Tolerant {
		panic(fmt.Sprintf("vm: batch lane %d PC %d outside %q code (len %d)",
			lane, b.PC[lane], b.Prog.Name, len(b.Prog.Code)))
	}
	b.Halted[lane] = true
	b.Trapped[lane] = true
}
