package pipeline

// dispatchStage implements the PBOX/QBOX front end: one 8-instruction map
// chunk per cycle from one thread's rate-matching buffer into the
// instruction queue, allocating rename producers, load/store queue entries
// and correlation tags, and resolving memory dependences against older
// in-flight stores.
func (co *Core) dispatchStage() {
	ctx := co.chooseDispatchThread()
	if ctx == nil {
		return
	}
	for n := 0; n < co.cfg.MapWidth && !ctx.rmb.Empty(); n++ {
		d := ctx.rmb.Front()
		if d.rmbReadyAt > co.cycle {
			break
		}
		if !co.inFlightHasRoom(ctx) {
			break
		}
		upper := co.chooseHalf(ctx, d)
		if !co.iqHasRoom(ctx, upper) {
			ctx.Stats.IQFullStalls.Inc()
			break
		}
		if d.isLoad() && ctx.usesLoadQueue() && ctx.lqUsed >= ctx.lqCap {
			ctx.Stats.LQFullStalls.Inc()
			break
		}
		if d.isStore() && ctx.sqUsed >= ctx.sqCap {
			ctx.Stats.SQFullStalls.Inc()
			break
		}

		// All resources available: dispatch.
		ctx.rmb.Pop()
		d.renameCycle = co.cycle
		d.earliestIssue = co.cycle + PBOXLatency + QBOXLatency
		d.upperHalf = upper
		d.inIQ = true
		co.iqUsed[halfIdx(upper)]++
		ctx.iqOccupancy++
		co.inFlight++
		ctx.rob.Push(d)

		co.renameSources(ctx, d)
		co.place(ctx, d)
		if d.isMem() {
			co.dispatchMem(ctx, d)
		}
	}
}

// chooseDispatchThread picks, among threads whose oldest RMB instruction is
// ready, the one with the fewest instructions in flight (ICOUNT-style).
// This keeps one thread from monopolising the shared rename/completion
// budget while its own retirement is blocked — without it, a leading thread
// stalled on RMT backpressure squeezes its trailing thread down to the
// reserved chunk and the pair livelocks at a crawl.
func (co *Core) chooseDispatchThread() *Context {
	n := len(co.ctxs)
	var best *Context
	bestCount := 0
	for i := 0; i < n; i++ {
		ctx := co.ctxs[(co.dispatchRR+i)%n]
		if ctx.rmb.Empty() || ctx.rmb.Front().rmbReadyAt > co.cycle {
			continue
		}
		if count := ctx.rob.Len(); best == nil || count < bestCount {
			best, bestCount = ctx, count
		}
	}
	if best != nil {
		co.dispatchRR = (co.dispatchRR + 1) % n
	}
	return best
}

// chooseHalf assigns the instruction-queue half. The base rule follows the
// paper (§3.3): assignment by the instruction's position in its chunk —
// which is why, without PSR, corresponding leading and trailing
// instructions usually land in the same half (they occupy similar chunk
// positions; the paper measures 65% same-unit). With preferential space
// redundancy enabled, a trailing instruction goes to the opposite half from
// its leading counterpart (§4.5); if that half has no room but the other
// does, the scheduler falls back (the reason Figure 7's same-half fraction
// is near zero rather than exactly zero).
func (co *Core) chooseHalf(ctx *Context, d *dynInst) bool {
	positional := d.fetchSlot%2 == 1
	if ctx.Role == RoleTrailing && d.hasLeadInfo && ctx.Pair.PreferentialSpaceRedundancy {
		preferred := !d.leadUpper
		if co.iqHasRoom(ctx, preferred) {
			return preferred
		}
		if co.iqHasRoom(ctx, !preferred) {
			return !preferred
		}
		return preferred
	}
	return positional
}

// renameSources wires the dynInst to its in-flight producers and records it
// as the new producer of its destination. Sources and destination come from
// the static decode table (the zero register was already filtered out at
// decode, matching the old per-dispatch check).
func (co *Core) renameSources(ctx *Context, d *dynInst) {
	var scratch decodedInst
	dec := ctx.decodeOf(&co.cfg, d, &scratch)
	producer := func(r uint8, fp bool) instRef {
		if fp {
			return ctx.lastFP[r]
		}
		return ctx.lastInt[r]
	}
	if dec.srcA != noReg {
		d.srcA = producer(dec.srcA, dec.aFP)
	}
	if dec.srcB != noReg {
		d.srcB = producer(dec.srcB, dec.bFP)
	}
	if dec.srcD != noReg {
		d.srcD = producer(dec.srcD, dec.dFP)
	}
	if dec.dest != noReg {
		if dec.destFP {
			ctx.lastFP[dec.dest] = ref(d)
		} else {
			ctx.lastInt[dec.dest] = ref(d)
		}
	}
}

// dispatchMem allocates queue entries, correlation tags and memory
// dependences for a load or store.
func (co *Core) dispatchMem(ctx *Context, d *dynInst) {
	pair := ctx.Pair
	if d.isLoad() {
		if ctx.usesLoadQueue() && !d.out.Instr.IsUncached() {
			ctx.lqUsed++
		}
		// Uncached loads are replicated functionally through the I/O
		// bridge, not the LVQ, so they carry no load correlation tag.
		// Under adaptive redundancy, loads outside the sphere of
		// replication are likewise untagged: both copies consult the same
		// static protection table, so tag sequences stay dense and
		// identical across the pair.
		if !d.out.Instr.IsUncached() && (pair == nil || pair.ProtectedPC(d.out.PC)) {
			switch ctx.Role {
			case RoleLeading:
				d.loadTag = pair.NextLeadLoadTag()
			case RoleTrailing:
				d.loadTag = pair.NextTrailLoadTag()
			}
		}
		ctx.Stats.Loads.Inc()
	} else {
		ctx.sqUsed++
		d.sqEntered = co.cycle
		if pair == nil || pair.ProtectedPC(d.out.PC) {
			switch ctx.Role {
			case RoleLeading:
				d.storeTag = pair.NextLeadStoreTag()
			case RoleTrailing:
				d.storeTag = pair.NextTrailStoreTag()
			}
		}
		ctx.Stats.Stores.Inc()
	}

	// Trailing threads bypass the load queue, data cache and store-queue
	// search: their loads read the LVQ (§4.1). Their stores still sit in
	// the store queue until compared, but need no disambiguation (they
	// never misspeculate and their loads don't probe the SQ).
	if ctx.Role == RoleTrailing {
		if d.isStore() {
			ctx.inFlightStores.Push(d)
		}
		return
	}

	if d.isLoad() {
		// Oracle memory disambiguation: find the youngest older
		// overlapping in-flight store.
		for i := ctx.inFlightStores.Len() - 1; i >= 0; i-- {
			s := ctx.inFlightStores.At(i)
			if s.out.Seq > d.out.Seq || s.drained {
				continue
			}
			if overlaps(s.out.Addr, s.out.Size, d.out.Addr, d.out.Size) {
				d.depStore = ref(s)
				d.covered = covers(s.out.Addr, s.out.Size, d.out.Addr, d.out.Size)
				d.partial = !d.covered
				if d.partial {
					// The base machine flushes the store so the load can
					// read the merged bytes from the cache (§4.4.2); in RMT
					// mode the chunk must terminate at the store so the
					// trailing copy can verify and release it.
					s.forceTerm = true
				}
				break
			}
		}
		// Store-sets prediction: a load in a store's set waits for it.
		pcKey := co.iAddr(ctx, d.out.PC)
		if depTag := co.storeSets.DependsOn(pcKey, false, 0); depTag != 0 {
			for i := ctx.inFlightStores.Len() - 1; i >= 0; i-- {
				s := ctx.inFlightStores.At(i)
				if s.out.Seq == depTag-1 && !s.drained {
					d.predictedDep = ref(s)
					break
				}
			}
		}
	} else {
		pcKey := co.iAddr(ctx, d.out.PC)
		co.storeSets.DependsOn(pcKey, true, d.out.Seq+1) // register in LFST (tag = seq+1, 0 means none)
		ctx.inFlightStores.Push(d)
	}
}
