package pipeline

import (
	"repro/internal/isa"
	"repro/internal/rmt"
	"repro/internal/trace"
)

// issueStage implements the QBOX scheduler: each instruction-queue half
// issues up to four ready instructions per cycle in age order, subject to
// the MBOX port limits (at most three loads, two stores, four memory
// operations per cycle).
func (co *Core) issueStage() {
	co.releaseWheel()
	var issuedHalf [2]int
	loads, storesN, mems, fps := 0, 0, 0, 0
	n := len(co.ctxs)
	start := int(co.cycle) % max(n, 1)
	for i := 0; i < n; i++ {
		ctx := co.ctxs[(start+i)%n]
		// The ready list holds, in age order, exactly the IQ residents
		// whose operands reach the bypass network by register read: the
		// candidates a scan of every resident would keep past its operand
		// check, visited in the same order (wakeup.go). link is the
		// pointer to the candidate d, so an issued d is unlinked in place.
		for link := &ctx.readyHead; *link != nil; {
			d := *link
			if issuedHalf[0] >= co.cfg.IssuePerHalf && issuedHalf[1] >= co.cfg.IssuePerHalf {
				return
			}
			if d.earliestIssue > co.cycle {
				link = &d.wakeNext
				continue
			}
			h := halfIdx(d.upperHalf)
			if issuedHalf[h] >= co.cfg.IssuePerHalf {
				link = &d.wakeNext
				continue
			}
			isFP := d.kind.IsFP()
			if isFP && fps >= co.cfg.MaxFPPerCycle {
				link = &d.wakeNext
				continue
			}
			if d.isMem() {
				if mems >= co.cfg.MaxMemPerCycle {
					link = &d.wakeNext
					continue
				}
				if d.isLoad() && loads >= co.cfg.MaxLoadsPerCycle {
					link = &d.wakeNext
					continue
				}
				if d.isStore() && storesN >= co.cfg.MaxStoresPerCycle {
					link = &d.wakeNext
					continue
				}
				if !co.memReady(ctx, d) {
					link = &d.wakeNext
					continue
				}
			}

			// Issue.
			d.issued = true
			d.inIQ = false
			co.iqUsed[h]--
			ctx.iqOccupancy--
			d.issueCycle = co.cycle
			d.fu = uint8(h*co.cfg.IssuePerHalf + issuedHalf[h])
			issuedHalf[h]++
			if d.isMem() {
				mems++
				if d.isLoad() {
					loads++
				} else {
					storesN++
				}
			}
			if isFP {
				fps++
			}
			co.execute(ctx, d)
			// execute's wakeups link in behind d, so d is unlinked only
			// now.
			*link = d.wakeNext
			d.wakeNext = nil
		}
	}
}

// memReady applies memory-ordering constraints before a load or store may
// issue.
func (co *Core) memReady(ctx *Context, d *dynInst) bool {
	if d.out.Instr.IsUncached() && d.isLoad() {
		// Uncached loads are non-speculative: they issue only from the
		// head of the thread's window, after all older stores drained.
		return ctx.robHead() == d && !ctx.hasUndrainedOlderStores(d.out.Seq)
	}
	if d.isStore() {
		return true
	}
	if ctx.Role == RoleTrailing {
		if d.loadTag == 0 {
			// Unprotected load of a gated pair: no LVQ entry to wait for;
			// it reads the cache like a leading load.
			return true
		}
		// Trailing loads read the load value queue; if the entry has not
		// been forwarded yet the load retries (out-of-order trailing issue
		// is allowed by the tag-associative LVQ, §4.1).
		readyAt, ok := ctx.Pair.LVQ.Peek(d.loadTag)
		if !ok {
			ctx.Stats.LVQWaits.Inc()
			d.earliestIssue = co.cycle + 1
			return false
		}
		if readyAt > co.cycle {
			d.earliestIssue = readyAt
			return false
		}
		return true
	}
	// Stores are recycled only after they drain, so a stale depStore /
	// predictedDep reference (get() == nil) means "drained" — the same
	// outcome the pointer-based checks produced.
	if s := d.depStore.get(); s != nil && d.partial && !s.drained {
		// Partial overlap: the store must leave the store queue before the
		// load can read merged bytes from the cache (§4.4.2).
		return false
	}
	if s := d.depStore.get(); s != nil && d.covered && !s.drained &&
		!(s.issued && s.doneCycle <= co.cycle+RBOXLatency) {
		return false // wait for store-queue forwarding data
	}
	if p := d.predictedDep.get(); p != nil && !p.drained && !p.issued {
		return false // store-sets predicted dependence
	}
	return true
}

// execute assigns the completion time of an issued instruction and performs
// the issue-time side effects (cache access, LVQ consumption, comparator
// forwarding, fetch unblocking, space-redundancy accounting).
func (co *Core) execute(ctx *Context, d *dynInst) {
	base := co.cycle + RBOXLatency
	switch d.kind {
	case isa.ClassLoad:
		d.doneCycle = co.executeLoad(ctx, d, base)
	case isa.ClassStore:
		// Address at base+1; data arrives two cycles after the address
		// (§3.4), or when the data producer's result reaches the bypass
		// network, whichever is later.
		d.doneCycle = base + 3
		if p := d.srcD.get(); p != nil && !p.retired {
			if dataAt := p.doneCycle + 2; dataAt > d.doneCycle {
				d.doneCycle = dataAt
			}
		}
		if ctx.Role == RoleTrailing && !co.cfg.NoStoreComparison && d.storeTag != 0 {
			ctx.Pair.Cmp.AddTrailing(rmt.StoreRecord{
				Tag:     d.storeTag,
				Addr:    d.out.Addr,
				Size:    d.out.Size,
				Value:   d.out.Value,
				ReadyAt: d.doneCycle + ctx.Pair.Lat.StoreForward,
			})
		}
	case isa.ClassBranch, isa.ClassJump:
		d.doneCycle = base + 1
		if d.mispredicted {
			// Resolve: fetch restarts down the correct path next cycle.
			if ctx.fetchBlockedUntil == neverUnblock && ctx.pendingBranch == d {
				ctx.fetchBlockedUntil = d.doneCycle + 1
				ctx.pendingBranch = nil
				co.emitPoint(ctx, d, trace.KindSquash, d.doneCycle, false)
			}
		}
	default:
		d.doneCycle = base + ctx.latOf(&co.cfg, d)
	}

	co.wake(ctx, d)

	if ctx.Role == RoleTrailing && d.hasLeadInfo {
		ctx.Pair.ObserveSpaceRedundancy(d.leadUpper, d.upperHalf, int(d.leadFU), int(d.fu))
	}
}

// executeLoad resolves a load's completion: store-queue forwarding, LVQ
// read, or data cache access, plus the memory-order-violation replay
// penalty when the store-sets predictor failed to predict a real
// dependence.
func (co *Core) executeLoad(ctx *Context, d *dynInst, base uint64) uint64 {
	if d.out.Instr.IsUncached() {
		// Device round trip; the value was obtained (leading) or
		// replicated (trailing) by the functional oracle.
		return base + co.cfg.IOLatency
	}
	if ctx.Role == RoleTrailing && d.loadTag != 0 {
		e, ok := ctx.Pair.LVQ.Lookup(d.loadTag, co.cycle)
		if ok && e.Addr != d.out.Addr {
			// Address mismatch at the LVQ: a detected fault (§2.1 — the
			// trailing load verifies the address).
			ctx.Pair.LVQ.AddrMismatches.Inc()
			ctx.Pair.Detected = append(ctx.Pair.Detected, &rmt.Mismatch{
				Tag:      d.loadTag,
				LeadAddr: e.Addr, TrailAddr: d.out.Addr,
			})
			co.emitPoint(ctx, d, trace.KindCompare, co.cycle, true)
		}
		// The LVQ lookup is a store-queue-like CAM probe (§4.1).
		return base + 1 + MBOXLatency
	}

	done := base + 1 + MBOXLatency
	dep := d.depStore.get() // nil once the store drained and was recycled
	if dep != nil && d.covered && !dep.drained {
		// Store-queue forwarding: same latency as a cache hit.
	} else {
		avail := co.hier.L1D.Access(co.dAddr(ctx, d.out.Addr), base+1)
		if avail > base+1 {
			ctx.Stats.DCacheMisses.Inc()
			done = avail + MBOXLatency
		}
	}
	if dep != nil && !d.predictedDep.wasSet() && !dep.drained &&
		dep.issueCycle >= d.renameCycle {
		// The dependence was not predicted: on the real machine the load
		// would have issued early, violated, and replayed. Charge the
		// replay and teach the store-sets predictor.
		done += co.cfg.ReplayPenalty
		co.storeSets.Violation(co.iAddr(ctx, d.out.PC), co.iAddr(ctx, dep.out.PC))
	}
	return done
}
