package pipeline

import (
	"repro/internal/isa"
	"repro/internal/rmt"
	"repro/internal/trace"
	"repro/internal/vm"
)

// fetchStage implements the IBOX: the thread chooser selects one thread per
// cycle and fetches up to two 8-instruction chunks for it. Trailing threads
// fetch from their pair's line prediction queue; other threads fetch down
// the oracle-correct path under the line predictor / branch predictor
// timing rules.
func (co *Core) fetchStage() {
	ctx := co.chooseFetchThread()
	if ctx == nil {
		return
	}
	if ctx.Role == RoleTrailing {
		co.fetchTrailing(ctx)
	} else {
		co.fetchLeading(ctx)
	}
}

// fetchEligible reports whether a context can fetch at all this cycle.
func (co *Core) fetchEligible(ctx *Context) bool {
	if ctx.fetchHalted || ctx.fetchBlockedUntil > co.cycle {
		return false
	}
	if co.cfg.RMBCap-ctx.rmb.Len() < rmt.ChunkSize {
		return false
	}
	if ctx.Role == RoleTrailing {
		if _, ok := ctx.Pair.LPQ.PeekActive(co.cycle); !ok {
			return false
		}
		if co.cfg.SlackFetch > 0 {
			// Original-SRT slack fetch: hold trailing fetch until the
			// leading copy is sufficiently far ahead (ablation mode).
			lead := ctx.Pair.LeadCommitted
			if lead < ctx.Arch.Seq+co.cfg.SlackFetch {
				return false
			}
		}
	}
	return true
}

// chooseFetchThread picks the thread to fetch for: trailing threads with
// line predictions available take priority (the policy the paper found
// best, §4.4), then an ICOUNT-approximation over the rest (§3.1: the thread
// with the fewest instructions in its rate-matching buffer).
func (co *Core) chooseFetchThread() *Context {
	n := len(co.ctxs)
	// Trailing priority, round-robin among eligible trailing threads.
	for i := 0; i < n; i++ {
		ctx := co.ctxs[(co.fetchRR+i)%n]
		if ctx.Role == RoleTrailing && co.fetchEligible(ctx) {
			co.fetchRR = (co.fetchRR + i + 1) % n
			return ctx
		}
	}
	// ICOUNT among the others: fewest RMB+IQ instructions.
	var best *Context
	bestCount := 0
	for i := 0; i < n; i++ {
		ctx := co.ctxs[(co.fetchRR+i)%n]
		if ctx.Role == RoleTrailing || !co.fetchEligible(ctx) {
			continue
		}
		count := ctx.rmb.Len() + ctx.iqN()
		if best == nil || count < bestCount {
			best, bestCount = ctx, count
		}
	}
	if best != nil {
		co.fetchRR = (co.fetchRR + 1) % n
	}
	return best
}

func (co *Core) newDynInst(ctx *Context, out *vm.Outcome) *dynInst {
	d := ctx.allocInst()
	d.out = *out
	d.tid = ctx.TID
	d.kind = out.Instr.Op.Info().Class
	d.fetchCycle = co.cycle
	d.rmbReadyAt = co.cycle + IBOXLatency
	return d
}

// maybeInterrupt delivers a pending timer interrupt at a fetch-chunk
// boundary: the oracle is redirected to the handler, and (for a leading
// copy) the delivery point — the dynamic instruction count — is recorded so
// the trailing copy takes the interrupt at exactly the same point.
func (co *Core) maybeInterrupt(ctx *Context) {
	if co.cfg.InterruptEvery == 0 || ctx.Arch.Prog.InterruptHandler == 0 {
		return
	}
	if ctx.nextInterruptAt == 0 {
		ctx.nextInterruptAt = co.cfg.InterruptEvery
	}
	if co.cycle < ctx.nextInterruptAt {
		return
	}
	// Do not interrupt inside the handler (R30 live): defer until the
	// running handler returns, detected by the resume PC register being
	// consumed. A simple and sufficient guard: require the previous
	// interrupt's handler to have finished by spacing (the schedule period
	// is far longer than any handler).
	ctx.nextInterruptAt = co.cycle + co.cfg.InterruptEvery
	ctx.Interrupts++
	if ctx.Role == RoleLeading {
		ctx.Pair.InterruptSchedule = append(ctx.Pair.InterruptSchedule, ctx.Arch.Seq)
	}
	ctx.Arch.Interrupt(ctx.Arch.Prog.InterruptHandler)
}

// maybeTrailingInterrupt replays the leading copy's interrupt delivery
// points on the trailing copy, before the instruction with the recorded
// dynamic count is executed.
func (co *Core) maybeTrailingInterrupt(ctx *Context) {
	pair := ctx.Pair
	if pair == nil || pair.TrailInterruptIdx >= len(pair.InterruptSchedule) {
		return
	}
	if ctx.Arch.Seq == pair.InterruptSchedule[pair.TrailInterruptIdx] {
		pair.TrailInterruptIdx++
		ctx.Interrupts++
		ctx.Arch.Interrupt(ctx.Arch.Prog.InterruptHandler)
	}
}

// fetchLeading fetches for a single or leading thread down the correct
// path, modelling line-predictor and branch-predictor behaviour and
// instruction cache misses.
func (co *Core) fetchLeading(ctx *Context) {
	for chunk := 0; chunk < co.cfg.FetchChunks; chunk++ {
		if ctx.fetchHalted || ctx.fetchBlockedUntil > co.cycle {
			return
		}
		if co.cfg.RMBCap-ctx.rmb.Len() < rmt.ChunkSize {
			return
		}
		co.maybeInterrupt(ctx)
		chunkStart := ctx.Arch.PC
		// Instruction cache probe for the chunk's block. A way-mispredict
		// bubble (hit with done = now+1) delays the chunk's delivery but
		// does not re-initiate the fetch; a real miss stalls the thread
		// until the fill.
		avail, hit := co.hier.L1I.Lookup(co.iAddr(ctx, chunkStart), co.cycle)
		if !hit || avail > co.cycle+IBOXLatency {
			if !hit {
				ctx.Stats.ICacheMisses.Inc()
			}
			ctx.fetchBlockedUntil = avail
			return
		}
		co.buildChunk(ctx, chunkStart, avail-co.cycle)
		// Line predictor accounting: it predicts the next chunk start
		// from this one. A wrong line prediction that the control-flow
		// predictors catch costs a retrain bubble (§3.1); a wrong-path
		// branch blocks fetch until resolution (handled in buildChunk).
		ctx.Stats.LineFetches.Inc()
		key := co.iAddr(ctx, chunkStart)
		actualNext := co.iAddr(ctx, ctx.Arch.PC)
		pred, ok := co.linePred.Predict(key)
		if !ok || pred != actualNext {
			ctx.Stats.LineMispredicts.Inc()
			co.linePred.Train(key, actualNext)
			if ctx.fetchBlockedUntil <= co.cycle {
				ctx.fetchBlockedUntil = co.cycle + co.cfg.LineRetrainBubble
			}
			return // reinitiated fetch: no second chunk this cycle
		}
	}
}

// buildChunk steps the oracle through one fetch chunk, creating dynInsts and
// handling branch prediction. It stops at taken branches, block boundaries,
// the chunk limit, HALT, and branch mispredictions.
func (co *Core) buildChunk(ctx *Context, chunkStart uint64, bubble uint64) {
	blockWords := uint64(co.cfg.Hier.BlockBytes / 8)
	for slot := 0; slot < rmt.ChunkSize; slot++ {
		pc := ctx.Arch.PC
		if slot > 0 && pc/blockWords != chunkStart/blockWords {
			return // cannot fetch across a cache line in one chunk
		}
		out := &ctx.stepOut
		ctx.Arch.StepInto(out)
		d := co.newDynInst(ctx, out)
		d.rmbReadyAt += bubble
		d.fetchSlot = slot
		ctx.rmb.Push(d)

		if out.Halted {
			ctx.fetchHalted = true
			return
		}
		if out.Instr.IsBranch() {
			co.predictBranch(ctx, d)
			if d.mispredicted {
				// Fetch stalls until the branch resolves at execute;
				// issueStage unblocks it.
				ctx.pendingBranch = d
				ctx.fetchBlockedUntil = neverUnblock
				return
			}
			if out.Taken {
				return // chunk ends at a (correctly) predicted-taken branch
			}
		}
	}
}

// predictBranch runs the control-flow predictors against the oracle outcome
// and marks the dynInst mispredicted when they disagree. Predictors train
// immediately (in fetch order).
func (co *Core) predictBranch(ctx *Context, d *dynInst) {
	out := &d.out
	ins := out.Instr
	ctx.Stats.Branches.Inc()
	pcKey := co.iAddr(ctx, out.PC)

	switch {
	case ins.IsCondBranch():
		predTaken := co.branchPred.Predict(pcKey, ctx.TID)
		co.branchPred.Train(pcKey, ctx.TID, out.Taken)
		if predTaken != out.Taken {
			d.mispredicted = true
		}
	case ins.Op == isa.JSR:
		// Direct call: target known at fetch; push the return address.
		ctx.ras.Push(out.PC + 1)
	case ins.Op == isa.JMP:
		// Returns predict through the RAS; other indirect jumps through
		// the jump target predictor.
		if target, ok := ctx.ras.Pop(); ok && target == out.NextPC {
			break
		} else if ok {
			d.mispredicted = true
			break
		}
		target, ok := co.jumpPred.Predict(pcKey)
		co.jumpPred.Train(pcKey, out.NextPC)
		if !ok || target != out.NextPC {
			d.mispredicted = true
		}
	case ins.Op == isa.BR:
		// Direct unconditional: always correctly predicted (the line
		// predictor cost is modelled separately).
	}
	if d.mispredicted {
		ctx.Stats.BranchMispredicts.Inc()
	}
}

// fetchTrailing fetches for a trailing thread from its pair's line
// prediction queue: perfect chunk predictions from the leading thread's
// retirement stream (§4.4). Instruction cache misses roll the active head
// back to the recovery head (Figure 4).
func (co *Core) fetchTrailing(ctx *Context) {
	pair := ctx.Pair
	for chunk := 0; chunk < co.cfg.FetchChunks; chunk++ {
		if ctx.fetchHalted || co.cfg.RMBCap-ctx.rmb.Len() < rmt.ChunkSize {
			return
		}
		c, ok := pair.LPQ.PeekActive(co.cycle)
		if !ok {
			return
		}
		avail, hit := co.hier.L1I.Lookup(co.iAddr(ctx, c.StartPC), co.cycle)
		if !hit || avail > co.cycle+IBOXLatency {
			// The address driver accepted the prediction but the fetch
			// must reissue after the fill: roll back to the recovery head.
			if !hit {
				ctx.Stats.ICacheMisses.Inc()
			}
			pair.LPQ.Ack()
			pair.LPQ.Rollback()
			ctx.fetchBlockedUntil = avail
			return
		}
		bubble := avail - co.cycle
		pair.LPQ.Ack()
		co.maybeTrailingInterrupt(ctx)
		if ctx.Arch.PC != c.StartPC {
			// The two copies' control flow has diverged — only possible
			// under an injected fault. Record the divergence; the trailing
			// copy continues down its own architectural path and the store
			// comparator will flag the first differing store.
			pair.Detected = append(pair.Detected, &rmt.Mismatch{
				LeadAddr:  c.StartPC,
				TrailAddr: ctx.Arch.PC,
			})
			if co.Trace != nil {
				co.emit(trace.Event{
					Kind:     trace.KindCompare,
					TID:      ctx.TID,
					Cycle:    co.cycle,
					Seq:      ctx.Arch.Seq,
					PC:       ctx.Arch.PC,
					Text:     "control-flow divergence",
					Mismatch: true,
				})
			}
		}
		for slot := 0; slot < c.Count; slot++ {
			out := &ctx.stepOut
			ctx.Arch.StepInto(out)
			d := co.newDynInst(ctx, out)
			d.rmbReadyAt += bubble
			d.fetchSlot = slot
			d.hasLeadInfo = true
			d.leadUpper = c.UpperHalf[slot]
			d.leadFU = c.FUs[slot]
			ctx.rmb.Push(d)
			if out.Halted {
				ctx.fetchHalted = true
				break
			}
		}
		pair.LPQ.Complete()
	}
}
