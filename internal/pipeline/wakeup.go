package pipeline

// Event-driven issue wakeup. The scheduler never rescans a resident whose
// operands are not ready: each unissued instruction-queue resident waits on
// exactly one list until its operands reach the bypass network.
//
//   - On the consumers list of a producer that has not issued. Issue is the
//     only time a producer's doneCycle is set, so the producer's issue is
//     the event that can make the consumer ready.
//   - On the core's timing wheel, in the slot of the cycle its operands
//     become ready: the later of its earliestIssue and each issued
//     producer's doneCycle − RBOXLatency.
//   - In its context's ready list, in age order: the candidates issueStage
//     visits.
//
// Readiness is monotone: once a producer has issued its doneCycle never
// changes, and a retired or recycled producer reads as ready. So a resident
// that reaches the ready list stays operand-ready until it issues, and the
// ready list after the wheel slot's release holds exactly the residents a
// full scan would find past its earliestIssue and operand checks (DESIGN.md
// §9 gives the argument that the scheduler's decisions are unchanged).

// wheelSlots is the timing wheel's size, a power of two. A resident ready
// more than wheelSlots cycles ahead waits in its slot for the later lap.
const (
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
)

// place puts an unissued IQ resident on the list it waits on: the
// consumers of its first producer that has not issued, else the timing
// wheel, or the ready list when its operands are ready this cycle.
// A store waits on its address operand only: its data follows the address
// into the store queue (§3.4).
func (co *Core) place(ctx *Context, d *dynInst) {
	at := d.earliestIssue
	p := d.srcA.pending(&at)
	if p == nil && !d.isStore() {
		if p = d.srcB.pending(&at); p == nil {
			p = d.srcD.pending(&at)
		}
	}
	if p != nil {
		d.wakeNext = p.consumers
		p.consumers = d
		return
	}
	if at <= co.cycle {
		ctx.readyInsert(d)
		return
	}
	d.wakeAt = at
	slot := &co.wheel[at&wheelMask]
	d.wakeNext = *slot
	*slot = d
}

// pending returns the referenced producer if it has not issued. Otherwise
// it raises *at to the cycle the producer's result reaches the bypass
// network by register read, and returns nil. A recycled producer was
// retired before recycling, so the stale reference resolving to nil means
// ready, as retired does.
func (r instRef) pending(at *uint64) *dynInst {
	p := r.get()
	if p == nil || p.retired {
		return nil
	}
	if !p.issued {
		return p
	}
	if p.doneCycle > RBOXLatency && p.doneCycle-RBOXLatency > *at {
		*at = p.doneCycle - RBOXLatency
	}
	return nil
}

// wake re-places the consumers of p, which has just issued: each moves to
// its next unissued producer, the timing wheel or the ready list. Every
// latency is at least one cycle, so a consumer woken now becomes ready no
// earlier than the next cycle; a zero-latency device access is the one
// exception, and its consumers join the ready list behind p, where this
// cycle's scan still reaches them as a full scan would.
func (co *Core) wake(ctx *Context, p *dynInst) {
	d := p.consumers
	p.consumers = nil
	for d != nil {
		next := d.wakeNext
		d.wakeNext = nil
		co.place(ctx, d)
		d = next
	}
}

// releaseWheel moves the residents whose operands become ready this cycle
// from the current wheel slot into their contexts' ready lists. Entries
// for a later lap stay in the slot.
func (co *Core) releaseWheel() {
	slot := &co.wheel[co.cycle&wheelMask]
	d := *slot
	*slot = nil
	for d != nil {
		next := d.wakeNext
		if d.wakeAt > co.cycle {
			d.wakeNext = *slot
			*slot = d
		} else {
			d.wakeNext = nil
			co.ctxs[d.tid].readyInsert(d)
		}
		d = next
	}
}

// readyInsert links d into the ready list in age order. The list is short
// (about two entries when one joins), so a walk from the old end is as
// cheap as any index.
func (c *Context) readyInsert(d *dynInst) {
	link := &c.readyHead
	for *link != nil && (*link).out.Seq < d.out.Seq {
		link = &(*link).wakeNext
	}
	d.wakeNext = *link
	*link = d
}

// rebuildWakeup derives the wakeup lists from the window's IQ residents,
// after a restore has replaced every instruction.
func (co *Core) rebuildWakeup() {
	clear(co.wheel)
	for _, c := range co.ctxs {
		c.readyHead = nil
	}
	for _, c := range co.ctxs {
		for i := 0; i < c.rob.Len(); i++ {
			if d := c.rob.At(i); d.inIQ {
				co.place(c, d)
			}
		}
	}
}
