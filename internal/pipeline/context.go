package pipeline

import (
	"math"

	"repro/internal/predict"
	"repro/internal/ringq"
	"repro/internal/rmt"
	"repro/internal/stats"
	"repro/internal/vm"
)

const neverUnblock = math.MaxUint64

// Context is one hardware thread context on a core.
type Context struct {
	TID  int  // identity fixed at AddContext
	Role Role //rmtsnap:skip — identity fixed at AddContext
	// Pair is the redundant pair this context belongs to (nil for
	// RoleSingle).
	Pair *rmt.Pair //rmtsnap:skip — pair wiring; the pair snapshots itself
	// ProgID tags this logical program's address space in the shared
	// memory hierarchy.
	ProgID int //rmtsnap:skip — identity fixed at AddContext

	// Arch is the functional oracle.
	Arch *vm.Thread

	// stepOut is the fetch stage's reusable outcome buffer: StepInto's
	// target must not be a stack variable whose address flows into the
	// predecoded handler closures, or escape analysis heap-allocates it
	// every step.
	stepOut vm.Outcome //rmtsnap:skip — scratch buffer, dead between steps
	// PeerArch is the other copy's functional state (redundant pairs
	// only): the trailing copy releases both overlays when its stores
	// drain, keeping the shared committed memory consistent with the
	// slower copy's execution point.
	PeerArch *vm.Thread //rmtsnap:skip — wiring to the peer, which snapshots its own thread

	// Stats accumulates per-thread counters.
	Stats *stats.ThreadStats

	// IOWrite performs an uncached (STIO) device write when the store
	// leaves the sphere of replication (exactly once, after comparison in
	// redundant modes). nil discards the write.
	IOWrite func(addr, val uint64) //rmtsnap:skip — device hook, outside simulated state

	// Budget stops fetch after this many committed instructions
	// (0 = unlimited).
	Budget uint64
	// Warmup is the committed-instruction count after which statistics are
	// reset (caches and predictors stay warm), mirroring the paper's
	// warm-then-measure methodology (§6.2). Must be < Budget.
	Warmup uint64

	// --- fetch state ---
	fetchBlockedUntil uint64
	// pendingBranch, when non-nil, is the unresolved mispredicted branch
	// fetch is waiting on; fetch resumes the cycle after it completes.
	pendingBranch *dynInst
	fetchHalted   bool // HALT fetched or budget reached
	ras           *predict.RAS
	// lastChunkStart keys the line predictor (it predicts the next chunk
	// from the current one).
	lastChunkStart uint64
	haveLastChunk  bool

	// decode is the static decode table, indexed by PC (built once per
	// context at AddContext from the program's code image).
	decode []decodedInst //rmtsnap:skip — static table derived from the code image

	// freeInsts is the context's dynInst recycling pool: instructions are
	// returned here after retirement (stores: after drain) and reused by
	// fetch, so the steady-state per-cycle path allocates nothing. It is
	// allocator state, not simulated state: a snapshot does not hold it,
	// and a restore refills it with the records it has no use for.
	freeInsts []*dynInst
	// poolDisabled turns recycling off (testing knob: the pooled and
	// unpooled machines must be cycle-identical and write identical
	// snapshots).
	poolDisabled bool

	// snapTable numbers the context's instructions for a snapshot pass and
	// keeps the tombstone restores share (snapshot.go).
	snapTable instTable // scratch, rebuilt by every snapshot pass

	// rmb is the rate-matching buffer: fetched, decoded instructions in
	// program order awaiting rename.
	rmb *ringq.Ring[*dynInst]

	// rob is the in-flight window (renamed, unretired), program order.
	rob *ringq.Ring[*dynInst]

	// Rename tables: last in-flight writer per architectural register.
	// Generation-checked references: a recycled producer reads as nil,
	// which renameSources treats the same as "no in-flight writer".
	lastInt [32]instRef
	lastFP  [32]instRef

	// inFlightStores tracks renamed, undrained stores for memory
	// disambiguation and the partial-forward rule.
	inFlightStores *ringq.Ring[*dynInst]

	// retiredStores holds retired-but-undrained stores in program order
	// (leading: awaiting verification; single: awaiting merge-buffer
	// drain).
	retiredStores *ringq.Ring[*dynInst]

	// trailRetiredStores holds retired trailing stores whose comparator
	// records have not yet been consumed (their SQ entries stay busy).
	trailRetiredStores *ringq.Ring[*dynInst]

	// Queue occupancies and caps (static division of Table 1's queues).
	lqUsed, sqUsed int
	lqCap, sqCap   int //rmtsnap:skip — static queue division fixed at AddContext

	// iqOccupancy caches this thread's instruction-queue slot usage.
	iqOccupancy int

	// readyHead heads the ready list: the instruction-queue residents
	// whose operands reach the bypass network by register read, in age
	// order, linked through wakeNext (wakeup.go).
	readyHead *dynInst // derived from the IQ residents, rebuilt on restore

	// nextInterruptAt is the next timer-interrupt cycle (0 = disabled or
	// trailing role, which follows the pair's replicated schedule).
	nextInterruptAt uint64
	// Interrupts counts interrupts delivered to this context.
	Interrupts uint64

	committed uint64
	// FinishCycle records when the commit budget was reached (0 = not
	// yet). Threads keep running after their budget so resource contention
	// stays realistic until every thread finishes.
	FinishCycle uint64
	// WarmCycle records when the warmup count was reached.
	WarmCycle uint64
	warmed    bool
}

// allocInst draws a dynamic instruction from the recycling pool, falling
// back to the heap while the pool warms up (or when recycling is disabled).
func (c *Context) allocInst() *dynInst {
	if n := len(c.freeInsts); n > 0 {
		d := c.freeInsts[n-1]
		c.freeInsts[n-1] = nil
		c.freeInsts = c.freeInsts[:n-1]
		return d
	}
	return new(dynInst)
}

// freeInst returns a dynamic instruction to the pool, bumping its generation
// so outstanding instRefs to it resolve to nil ("retired/drained") instead
// of aliasing its next incarnation. Instructions are only freed once fully
// done — retired for non-stores, retired and drained for stores — which is
// exactly the state every reader already treats as "architecturally ready".
func (c *Context) freeInst(d *dynInst) {
	if c.poolDisabled {
		return
	}
	*d = dynInst{gen: d.gen + 1}
	if len(c.freeInsts) < cap(c.freeInsts) {
		c.freeInsts = append(c.freeInsts, d)
	}
}

// Committed returns the number of retired instructions.
func (c *Context) Committed() uint64 { return c.committed }

// robHead returns the oldest in-flight instruction, nil if none.
func (c *Context) robHead() *dynInst {
	if c.rob.Empty() {
		return nil
	}
	return c.rob.Front()
}

// usesLoadQueue reports whether the context's loads occupy load-queue
// entries. Trailing threads read the LVQ instead, freeing their share
// (§4.1).
func (c *Context) usesLoadQueue() bool { return c.Role != RoleTrailing }

// Occupancy reports the context's live queue occupancies (window, rate
// matching buffer, instruction queue slots, store queue, load queue) for
// the observability layer's gauges and per-cycle histograms.
func (c *Context) Occupancy() (rob, rmb, iq, sq, lq int) {
	return c.rob.Len(), c.rmb.Len(), c.iqOccupancy, c.sqUsed, c.lqUsed
}

// QueueCaps reports the context's static store/load queue shares.
func (c *Context) QueueCaps() (sq, lq int) { return c.sqCap, c.lqCap }

// drainedAndIdle reports whether the context has no in-flight work at all.
func (c *Context) drainedAndIdle() bool {
	return c.rob.Empty() && c.rmb.Empty() &&
		c.retiredStores.Empty() && c.trailRetiredStores.Empty()
}
