package pipeline

import (
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/ringq"
	"repro/internal/rmt"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Core is one SMT processor core: shared fetch/rename/issue/retire hardware
// multiplexed over up to four hardware thread contexts.
type Core struct {
	ID  int    // identity fixed at construction
	cfg Config //rmtsnap:skip — construction-time config

	cycle uint64

	ctxs []*Context

	hier     *mem.Hierarchy
	mergeBuf *mem.MergeBuffer

	linePred   *predict.LinePredictor
	branchPred *predict.BranchPredictor
	jumpPred   *predict.JumpPredictor
	storeSets  *predict.StoreSets

	// iqUsed tracks occupancy of the two instruction-queue halves
	// (false=lower, true=upper indexed as 0/1).
	iqUsed [2]int

	// wheel is the issue scheduler's timing wheel: slot c&wheelMask lists
	// the instruction-queue residents whose operands become ready at cycle
	// c (wakeup.go).
	wheel []*dynInst // derived from the IQ residents, rebuilt on restore

	// inFlight counts renamed, unretired instructions across all threads:
	// the shared completion-unit / physical-register budget (512 physical
	// minus 256 architectural registers = 256 renames in flight).
	inFlight int

	fetchRR    int
	dispatchRR int

	// Retired counts total instructions retired on this core (watchdog
	// progress indicator).
	Retired uint64

	// Trace, when non-nil, receives one event per retired instruction,
	// spanning its fetch to its retirement, and a point event per squash
	// and sphere-of-replication comparison (internal/trace records and
	// renders them). A hook that returns false records nothing more, and
	// the core drops it.
	Trace func(ev trace.Event) bool //rmtsnap:skip — observer hook, outside simulated state

	// Probe, when non-nil, runs at the end of every Step — the hook the
	// observability layer uses to sample occupancy histograms. It must not
	// mutate machine state.
	Probe func() //rmtsnap:skip — observer hook, outside simulated state
}

// emit sends ev to the trace hook, dropping the hook once it reports that
// it records nothing more.
func (co *Core) emit(ev trace.Event) {
	if !co.Trace(ev) {
		co.Trace = nil
	}
}

// emitSpan sends d's span, from fetch to retirement, to the trace hook
// when one is attached. The event carries the cycles d recorded at each
// stage.
func (co *Core) emitSpan(ctx *Context, d *dynInst) {
	if co.Trace == nil {
		return
	}
	co.emit(trace.Event{
		Kind:     trace.KindInstr,
		TID:      ctx.TID,
		Cycle:    d.fetchCycle,
		End:      d.retireCycle,
		Seq:      d.out.Seq,
		PC:       d.out.PC,
		Text:     d.out.Instr.String(),
		Dispatch: d.renameCycle,
		Issue:    d.issueCycle,
		Done:     d.doneCycle,
	})
}

// emitPoint sends a point event about d at cycle to the trace hook when
// one is attached: a squash, or a comparison and whether it detected a
// mismatch.
func (co *Core) emitPoint(ctx *Context, d *dynInst, kind trace.EventKind, cycle uint64, mismatch bool) {
	if co.Trace == nil {
		return
	}
	co.emit(trace.Event{
		Kind:     kind,
		TID:      ctx.TID,
		Cycle:    cycle,
		Seq:      d.out.Seq,
		PC:       d.out.PC,
		Text:     d.out.Instr.String(),
		Mismatch: mismatch,
	})
}

// NewCore builds a core without contexts; AddContext attaches them.
// sharedL2 may carry a shared L2 for CMP configurations (nil = private
// hierarchy).
func NewCore(id int, cfg Config, sharedL2 *mem.Cache) *Core {
	co := new(Core)
	co.Rebuild(id, cfg, sharedL2)
	return co
}

// Rebuild makes co the core NewCore(id, cfg, sharedL2) builds. The caches,
// the merge buffer, the predictors and the timing wheel it holds are
// rebuilt in place, so their arrays are reused; everything else starts
// fresh, its contexts, counters and observer hooks included.
func (co *Core) Rebuild(id int, cfg Config, sharedL2 *mem.Cache) {
	*co = Core{
		ID:         id,
		cfg:        cfg,
		hier:       orNew(co.hier),
		mergeBuf:   orNew(co.mergeBuf),
		linePred:   orNew(co.linePred),
		branchPred: orNew(co.branchPred),
		jumpPred:   orNew(co.jumpPred),
		storeSets:  orNew(co.storeSets),
		wheel:      slices.Grow(co.wheel[:0], wheelSlots)[:wheelSlots],
	}
	co.hier.Rebuild(cfg.Hier, sharedL2)
	co.mergeBuf.Rebuild(cfg.MergeBufEntries, cfg.Hier.BlockBytes, co.hier.L1D)
	co.linePred.Rebuild(cfg.LinePredictorBits)
	co.branchPred.Rebuild(cfg.BranchPredictorBits)
	co.jumpPred.Rebuild(cfg.JumpPredictorBits)
	co.storeSets.Rebuild(cfg.StoreSetBits, cfg.StoreSetCount)
	clear(co.wheel)
}

// orNew returns p, or a new zero T when p is nil.
func orNew[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// Hierarchy exposes the core's memory hierarchy (for inspection and shared-L2
// plumbing).
func (co *Core) Hierarchy() *mem.Hierarchy { return co.hier }

// Contexts returns the hardware thread contexts.
func (co *Core) Contexts() []*Context { return co.ctxs }

// Cycle returns the current cycle number.
func (co *Core) Cycle() uint64 { return co.cycle }

// AddContext attaches a hardware thread context and finalises its queue
// shares once all contexts are attached via FinalizeQueues.
func (co *Core) AddContext(ctx *Context) {
	ctx.TID = len(co.ctxs)
	ctx.ras = predict.NewRAS(co.cfg.RASDepth)
	if ctx.Stats == nil {
		ctx.Stats = &stats.ThreadStats{}
	}
	ctx.decode = buildDecode(&co.cfg, ctx.Arch.Prog)
	ctx.poolDisabled = co.cfg.DisableInstPool
	co.ctxs = append(co.ctxs, ctx)
}

// FinalizeQueues statically divides the load and store queues among the
// attached contexts (§3.4): the store queue among all threads (or SQCap each
// with per-thread store queues), the load queue among the threads that use
// it (trailing threads read the LVQ instead, §4.1).
func (co *Core) FinalizeQueues() {
	nLQ := 0
	for _, c := range co.ctxs {
		if c.usesLoadQueue() {
			nLQ++
		}
	}
	for _, c := range co.ctxs {
		if co.cfg.PerThreadSQ {
			c.sqCap = co.cfg.SQCap
		} else {
			c.sqCap = co.cfg.SQCap / len(co.ctxs)
		}
		if c.usesLoadQueue() {
			c.lqCap = co.cfg.LQCap / nLQ
		}
		co.allocQueues(c)
	}
}

// allocQueues sizes the context's ring buffers and recycling pool from the
// final capacities: the RMB and window at their configured caps, and every
// store list at the store-queue share (each entry holds an SQ slot until it
// drains, so sqCap bounds all three). The pool's high-water mark is the sum
// of every structure that can hold a live instruction.
func (co *Core) allocQueues(c *Context) {
	if c.rmb != nil {
		return // already allocated (FinalizeQueues called again)
	}
	c.rmb = ringq.New[*dynInst](co.cfg.RMBCap)
	c.rob = ringq.New[*dynInst](co.cfg.InFlightCap)
	sq := max(c.sqCap, 1)
	c.inFlightStores = ringq.New[*dynInst](sq)
	c.retiredStores = ringq.New[*dynInst](sq)
	c.trailRetiredStores = ringq.New[*dynInst](sq)
	c.freeInsts = make([]*dynInst, 0, co.cfg.RMBCap+co.cfg.InFlightCap+2*sq)
}

// iAddr maps a program counter into the tagged instruction address space.
// Each program's code image is offset by a stride that is NOT a multiple of
// the instruction cache's set span (as a linker's layout would be), so
// co-scheduled programs spread across sets instead of thrashing one set —
// 0x2840 bytes lands images 161 sets apart in a 512-set L1I.
func (co *Core) iAddr(ctx *Context, pc uint64) uint64 {
	return uint64(ctx.ProgID)<<44 | 1<<43 | (uint64(ctx.ProgID)*0x2840 + pc<<3)
}

// dAddr maps a data address into the tagged data address space.
func (co *Core) dAddr(ctx *Context, addr uint64) uint64 {
	return uint64(ctx.ProgID)<<44 | addr&((1<<43)-1)
}

func halfIdx(upper bool) int {
	if upper {
		return 1
	}
	return 0
}

// iqHasRoom checks capacity in the requested half while honouring the
// per-thread reserved chunk (§4.3): a dispatch may not consume slots that
// another thread needs to keep one chunk's worth of guaranteed space.
func (co *Core) iqHasRoom(ctx *Context, upper bool) bool {
	h := halfIdx(upper)
	if co.iqUsed[h] >= co.cfg.IQHalfCap {
		return false
	}
	reserve := 0
	for _, o := range co.ctxs {
		if o == ctx {
			continue
		}
		if n := o.iqN(); n < rmt.ChunkSize {
			reserve += rmt.ChunkSize - n
		}
	}
	total := co.iqUsed[0] + co.iqUsed[1]
	return total+1+reserve <= 2*co.cfg.IQHalfCap
}

// inFlightHasRoom checks the shared rename budget, reserving one chunk's
// worth per other thread (same deadlock-avoidance principle as the IQ).
func (co *Core) inFlightHasRoom(ctx *Context) bool {
	if co.inFlight >= co.cfg.InFlightCap {
		return false
	}
	reserve := 0
	for _, o := range co.ctxs {
		if o == ctx {
			continue
		}
		if n := o.rob.Len(); n < rmt.ChunkSize {
			reserve += rmt.ChunkSize - n
		}
	}
	return co.inFlight+1+reserve <= co.cfg.InFlightCap
}

// iqN is a cached per-context IQ occupancy counter.
func (c *Context) iqN() int { return c.iqOccupancy }

// Step advances the core by one cycle.
func (co *Core) Step() {
	// Stage order within a cycle is back-to-front so a value produced this
	// cycle is consumed no earlier than the next.
	co.retireStage()
	co.drainStores()
	co.issueStage()
	co.dispatchStage()
	co.fetchStage()
	if co.Probe != nil {
		co.Probe()
	}
	co.cycle++
}

// IQUsed returns the occupancy of one instruction-queue half (0 = lower,
// 1 = upper).
func (co *Core) IQUsed(half int) int { return co.iqUsed[half&1] }

// InFlightCount returns the renamed, unretired instruction count — shared
// completion-unit / physical-register pressure.
func (co *Core) InFlightCount() int { return co.inFlight }

// String summarises occupancy for debugging.
func (co *Core) String() string {
	s := fmt.Sprintf("core%d cyc=%d iq=%d/%d", co.ID, co.cycle, co.iqUsed[0], co.iqUsed[1])
	for _, c := range co.ctxs {
		s += fmt.Sprintf(" [t%d %s rob=%d rmb=%d sq=%d/%d committed=%d]",
			c.TID, c.Role, c.rob.Len(), c.rmb.Len(), c.sqUsed, c.sqCap, c.committed)
	}
	return s
}
