package pipeline

import (
	"repro/internal/isa"
	"repro/internal/rmt"
	"repro/internal/stats"
	"repro/internal/trace"
)

// retireStage implements the QBOX completion unit: up to RetireWidth
// instructions retire per cycle across threads, in program order within
// each thread. Leading-thread retirement feeds the RMT structures: every
// instruction joins the line-prediction-queue aggregation, loads push their
// address and value into the load value queue, and stores enter the store
// comparator while remaining in the store queue (§4.1, §4.2).
func (co *Core) retireStage() {
	width := co.cfg.RetireWidth
	n := len(co.ctxs)
	if n == 0 {
		return
	}
	start := int(co.cycle) % n
	for i := 0; i < n && width > 0; i++ {
		ctx := co.ctxs[(start+i)%n]
		for width > 0 {
			if !co.retireOne(ctx) {
				break
			}
			width--
		}
	}
}

// hasUndrainedOlderStores reports whether any store older than seq is still
// in the store queue (memory barriers may not retire until all older stores
// have drained, §4.4.2).
func (c *Context) hasUndrainedOlderStores(seq uint64) bool {
	for i := 0; i < c.inFlightStores.Len(); i++ {
		s := c.inFlightStores.At(i)
		if !s.drained && s.out.Seq < seq {
			return true
		}
	}
	return false
}

// retireOne retires the oldest instruction of ctx if possible.
func (co *Core) retireOne(ctx *Context) bool {
	d := ctx.robHead()
	if d == nil {
		return false
	}
	pair := ctx.Pair
	if !d.issued && d.partial && ctx.Role == RoleLeading && !co.cfg.NoStoreComparison {
		// A load partially overlapping an older store issues only once the
		// store drains, after its trailing copy is compared. A store that
		// retired before the load dispatched missed forceTerm, so it can
		// sit in the pending chunk that only this load's retirement would
		// push: push it now (§4.4.2's deadlock fix). A full LPQ drains on
		// its own.
		if s := d.depStore.get(); s != nil && s.retired && !s.drained &&
			pair.Agg.HoldsStore(s.storeTag) && pair.Agg.CanAdd() {
			pair.Agg.ForceFlush(co.cycle, pair.Lat.LPQForward)
		}
	}
	if !d.issued || d.doneCycle > co.cycle {
		return false
	}

	if d.kind == isa.ClassBarrier && ctx.hasUndrainedOlderStores(d.out.Seq) {
		if ctx.Role == RoleLeading {
			// The oldest leading instruction is a memory barrier blocked on
			// stores that cannot drain until their trailing copies are
			// fetched: force the pending chunk out (§4.4.2's deadlock fix).
			pair.Agg.ForceFlush(co.cycle, pair.Lat.LPQForward)
		}
		return false
	}

	if ctx.Role == RoleLeading {
		// Unprotected (untagged) loads of a gated pair bypass the LVQ and
		// cannot stall on it; everything else keeps the SRT stall exactly.
		if d.isLoad() && pair.LVQ.Full() && (d.loadTag != 0 || !pair.Gated()) {
			pair.LVQ.FullStalls.Inc()
			return false
		}
		if !pair.Agg.CanAdd() {
			pair.LPQ.FullStalls.Inc()
			return false
		}
		if pair.RVQ != nil && d.out.Instr.HasDest() && pair.RVQ.Full() {
			pair.RVQ.FullStalls.Inc()
			return false
		}
	}
	if ctx.Role == RoleTrailing && pair.RVQ != nil &&
		d.out.Instr.HasDest() &&
		pair.RVQ.Front(co.cycle) == nil {
		// SRTR: the trailing copy may not commit a register result before
		// checking it against the leading copy's RVQ entry.
		pair.RVQ.Waits.Inc()
		return false
	}

	// Commit.
	ctx.rob.Pop()
	d.retired = true
	d.retireCycle = co.cycle
	co.emitSpan(ctx, d)
	co.inFlight--
	co.Retired++
	ctx.committed++
	ctx.Stats.Committed.Inc()
	if !ctx.warmed && ctx.committed >= ctx.Warmup {
		// End of warmup: reset counters; caches, predictors and queue
		// state stay warm.
		ctx.warmed = true
		ctx.WarmCycle = co.cycle
		*ctx.Stats = stats.ThreadStats{}
	}
	if ctx.Budget > 0 && ctx.committed == ctx.Budget {
		ctx.FinishCycle = co.cycle
	}

	switch ctx.Role {
	case RoleLeading:
		pair.LeadCommitted = ctx.committed
		pair.Agg.Add(rmt.RetireInfo{
			PC:             d.out.PC,
			UpperHalf:      d.upperHalf,
			FU:             d.fu,
			ChunkStart:     d.fetchSlot == 0,
			LoadTag:        d.loadTag,
			StoreTag:       d.storeTag,
			ForceTerminate: d.forceTerm,
			RetireCycle:    co.cycle,
			ForwardLatency: pair.Lat.LPQForward,
		})
		if d.isLoad() && d.loadTag != 0 {
			pair.LVQ.Push(rmt.LVQEntry{
				Tag:     d.loadTag,
				Addr:    d.out.Addr,
				Size:    d.out.Size,
				Value:   d.out.Value,
				ReadyAt: co.cycle + pair.Lat.LVQForward,
			})
			ctx.lqUsed--
		} else if d.isLoad() && !d.out.Instr.IsUncached() {
			// Unprotected load of a gated pair: it occupied a load-queue
			// slot but bypasses the LVQ, so free the slot here.
			ctx.lqUsed--
		}
		if pair.RVQ != nil && d.out.Instr.HasDest() {
			pair.RVQ.Push(d.out.PC, d.out.DestVal, co.cycle+pair.Lat.LVQForward)
		}
		if d.isStore() {
			if co.cfg.NoStoreComparison || d.storeTag == 0 {
				// Untagged stores of a gated pair skip the comparator and
				// drain like uncompared stores.
				ctx.retiredStores.Push(d)
			} else {
				pair.Cmp.AddLeading(rmt.StoreRecord{
					Tag:     d.storeTag,
					Addr:    d.out.Addr,
					Size:    d.out.Size,
					Value:   d.out.Value,
					ReadyAt: co.cycle,
				})
				pair.LeadStoresRetired++
				ctx.retiredStores.Push(d)
			}
		}
		if d.kind == isa.ClassHalt {
			// Nothing retires after HALT: push the final partial chunk so
			// the trailing thread sees the end of the stream.
			pair.Agg.ForceFlush(co.cycle, pair.Lat.LPQForward)
		}
	case RoleTrailing:
		if pair.RVQ != nil && d.out.Instr.HasDest() {
			// SRTR register value check: the trailing result must match
			// the leading copy's committed result instruction-for-
			// instruction (the pre-commit wait above guarantees an entry).
			e := pair.RVQ.Front(co.cycle)
			if e.PC != d.out.PC || e.Val != d.out.DestVal {
				pair.RVQ.Mismatches.Inc()
				pair.Detected = append(pair.Detected, &rmt.Mismatch{
					LeadAddr: e.PC, TrailAddr: d.out.PC,
					LeadValue: e.Val, TrailValue: d.out.DestVal,
				})
			}
			pair.RVQ.Pop()
		}
		if d.isStore() {
			ctx.trailRetiredStores.Push(d)
		}
	case RoleSingle:
		if d.isLoad() && !d.out.Instr.IsUncached() {
			ctx.lqUsed--
		}
		if d.isStore() {
			ctx.retiredStores.Push(d)
		}
	}
	// Non-stores are done with the pipeline here; recycle them. Stores stay
	// live until their store-queue entry drains (freed by the drain loops).
	if !d.isStore() {
		ctx.freeInst(d)
	}
	return true
}

// drainStores advances the tail of the store pipeline each cycle: verifying
// leading stores against their trailing copies, draining verified/retired
// stores into the coalescing merge buffer, and releasing trailing
// store-queue entries once the comparator has consumed them.
func (co *Core) drainStores() {
	for _, ctx := range co.ctxs {
		switch ctx.Role {
		case RoleSingle:
			co.drainSingle(ctx)
		case RoleLeading:
			if co.cfg.NoStoreComparison {
				co.drainSingle(ctx)
			} else {
				co.drainLeading(ctx)
			}
		case RoleTrailing:
			co.drainTrailing(ctx)
		}
	}
}

// releaseStore finalises one store's exit from the store queue (the timing
// resource). Functional visibility is separate: a RoleSingle store commits
// to memory here; for redundant pairs the commit is deferred to the
// trailing copy's release (releasePairStore), because shared committed
// memory must never run ahead of the slower copy's functional execution
// point — the same invariant the sphere of replication provides in
// hardware.
func (co *Core) releaseStore(ctx *Context, d *dynInst) {
	d.drained = true
	ctx.sqUsed--
	ctx.Stats.StoreLifetime.Add(float64(co.cycle - d.sqEntered))
	uncached := d.out.Instr.IsUncached()
	if ctx.Role == RoleSingle {
		if !uncached {
			ctx.Arch.Mem.Release(d.out.Addr, d.out.Value, d.out.Size, d.out.Seq, true)
		}
	}
	if ctx.Role == RoleTrailing && !uncached {
		co.releasePairStore(ctx, d)
	}
	// The device write is performed exactly once, as the store leaves the
	// sphere of replication (single copy, or the verified leading copy).
	if uncached && (ctx.Role == RoleSingle || ctx.Role == RoleLeading) && ctx.IOWrite != nil {
		ctx.IOWrite(d.out.Addr, d.out.Value)
	}
	co.storeSets.StoreRetired(co.iAddr(ctx, d.out.PC), d.out.Seq+1)
	// Stores drain in program order, so this is almost always the ring's
	// O(1) front removal (the old slice shift-delete was O(n) per release).
	ctx.inFlightStores.Remove(d)
}

// releasePairStore commits a redundant store to shared memory and clears
// both copies' overlay bytes. It runs when the trailing copy's store-queue
// entry is freed: by then both copies have functionally executed the store,
// so making it globally visible cannot perturb either oracle. (Both copies
// wrote the same bytes in a fault-free run; under an injected fault the
// mismatch has already been recorded and architectural state past the
// detection point is not meaningful.)
func (co *Core) releasePairStore(trail *Context, d *dynInst) {
	trail.Arch.Mem.Release(d.out.Addr, d.out.Value, d.out.Size, d.out.Seq, true)
	if trail.PeerArch != nil {
		trail.PeerArch.Mem.Release(d.out.Addr, d.out.Value, d.out.Size, d.out.Seq, false)
	}
}

// drainSingle drains retired stores of a non-compared thread into the merge
// buffer, oldest first, honouring the lockstep checker penalty when
// configured.
func (co *Core) drainSingle(ctx *Context) {
	for n := 0; n < co.cfg.StoreDrainPerCycle && !ctx.retiredStores.Empty(); n++ {
		d := ctx.retiredStores.Front()
		if d.retireCycle+co.cfg.CheckerStorePenalty > co.cycle {
			return
		}
		if !d.out.Instr.IsUncached() {
			addr := co.dAddr(ctx, d.out.Addr)
			if !co.mergeBuf.CanAccept(addr, co.cycle) {
				return
			}
			co.mergeBuf.Accept(addr, co.cycle)
		}
		co.releaseStore(ctx, d)
		ctx.retiredStores.Pop()
		ctx.freeInst(d)
	}
}

// drainLeading verifies and drains leading-thread stores in program order:
// a store leaves the sphere of replication only after the store comparator
// has matched it against its trailing copy (§4.2). Mismatches are recorded
// as detected faults.
func (co *Core) drainLeading(ctx *Context) {
	pair := ctx.Pair
	for n := 0; n < co.cfg.StoreDrainPerCycle && !ctx.retiredStores.Empty(); n++ {
		d := ctx.retiredStores.Front()
		if !d.verified {
			if d.storeTag == 0 {
				// Untagged store of a gated pair: nothing to compare
				// against; it leaves the sphere unverified by design.
				d.verified = true
				d.verifiedAt = d.retireCycle
			} else {
				when, mismatch, done := pair.Cmp.Verify(d.storeTag, co.cycle)
				if !done {
					return // trailing copy not yet arrived
				}
				d.verified = true
				pair.StoresVerified++
				co.emitPoint(ctx, d, trace.KindCompare, co.cycle, mismatch != nil)
				if mismatch != nil {
					pair.Detected = append(pair.Detected, mismatch)
					d.verifiedAt = co.cycle
				} else {
					d.verifiedAt = when
				}
			}
		}
		if d.verifiedAt > co.cycle {
			return
		}
		if !d.out.Instr.IsUncached() {
			addr := co.dAddr(ctx, d.out.Addr)
			if !co.mergeBuf.CanAccept(addr, co.cycle) {
				return
			}
			co.mergeBuf.Accept(addr, co.cycle)
		}
		co.releaseStore(ctx, d)
		ctx.retiredStores.Pop()
		ctx.freeInst(d)
	}
}

// drainTrailing frees trailing store-queue entries whose comparator records
// have been consumed by verification. Trailing stores never leave the
// sphere themselves; their overlay bytes are committed (identically to the
// leading copy's) purely to keep the shared functional memory image
// consistent for later oracle reads.
func (co *Core) drainTrailing(ctx *Context) {
	pair := ctx.Pair
	for !ctx.trailRetiredStores.Empty() {
		d := ctx.trailRetiredStores.Front()
		// Tag 0 is "not compared" (gated pair): HasTrailing(0) would match
		// a FREE comparator slot and block the drain forever.
		if !co.cfg.NoStoreComparison && d.storeTag != 0 && pair.Cmp.HasTrailing(d.storeTag) {
			return // not yet compared
		}
		co.releaseStore(ctx, d)
		ctx.trailRetiredStores.Pop()
		ctx.freeInst(d)
	}
}
