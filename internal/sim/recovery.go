package sim

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/pipeline"
	"repro/internal/stats"
)

// SRTR recovery: the machine checkpoints its complete state on a fixed
// cycle grid and rolls back to the newest *validated* checkpoint when the
// redundant pair detects a fault, re-executing instead of halting.
//
// A checkpoint is validated in two phases, both evaluated only at
// checkpoint boundaries:
//
//  1. Both copies have committed past the pair's functional execution
//     point at capture (needSeq = max of the two vm sequence numbers).
//     Every register result the snapshot could contain — architectural or
//     in flight — has by then been cross-checked through the RVQ, because
//     the trailing copy compares each result at its own commit.
//  2. Every leading store retired by the end of phase 1 has been verified
//     by the store comparator (needVer, recorded at the phase transition,
//     over-approximates the stores the snapshot could contain).
//
// Any corruption captured by a checkpoint therefore forces a detection
// before that checkpoint can validate; on detection the machine discards
// all unvalidated checkpoints, so a validated checkpoint is provably
// byte-identical to the fault-free run's state at its cycle. That is the
// property the fault campaigns measure: post-recovery re-execution (the
// transient never re-fires) reconverges bit-for-bit with the golden run.
type srtrCkpt struct {
	cycle uint64
	// data is the snapshot a rollback restores; nil in a checkpoint
	// resumed from a CheckpointList.
	data []byte
	// Per-pair validation progress.
	needSeq   []uint64 // phase 0 target: both copies committed past this
	needVer   []uint64 // phase 1 target: stores verified past this
	phase     []int    // 0, 1, or 2 (= pair fully validated)
	validated bool
}

const (
	// defaultCheckpointInterval matches the fault engine's snapshot grid,
	// so an engine-restored machine resumes on the same absolute
	// boundaries a freshly built one uses.
	defaultCheckpointInterval = 1024
	// maxRecoveries bounds rollbacks per run; past it, detections behave
	// as in SRT.
	maxRecoveries = 8
	// haltGraceIntervals bounds how long a halt divergence between the
	// two copies may persist before it is treated as a detected fault:
	// the trailing copy normally halts a drain-lag after the leading one,
	// so divergence is only a symptom once that transient is over.
	haltGraceIntervals = 2
)

// capture snapshots the machine and records each pair's validation
// targets. It reuses a recycled checkpoint, buffer and all, when the
// machine holds one (release), so a run that drops its checkpoints as
// fast as it takes them captures without allocating.
func (m *Machine) capture() *srtrCkpt {
	var c *srtrCkpt
	if n := len(m.spareCkpts); n > 0 {
		c = m.spareCkpts[n-1]
		m.spareCkpts[n-1] = nil
		m.spareCkpts = m.spareCkpts[:n-1]
	} else {
		c = &srtrCkpt{
			needSeq: make([]uint64, len(m.Pairs)),
			needVer: make([]uint64, len(m.Pairs)),
			phase:   make([]int, len(m.Pairs)),
		}
	}
	c.cycle = m.Cycles
	c.data = m.AppendSnapshot(c.data[:0])
	c.validated = false
	for i := range m.Pairs {
		c.needSeq[i] = max(m.Leads[i].Arch.Seq, m.Trails[i].Arch.Seq)
		c.needVer[i] = 0
		c.phase[i] = 0
	}
	return c
}

// release recycles checkpoints the run has dropped: capture reuses them,
// in this run or the machine's next one. A released checkpoint must no
// longer be a rollback candidate, since its bytes will be overwritten.
// Resumed checkpoints hold no buffer to reuse and are not kept.
func (m *Machine) release(cs ...*srtrCkpt) {
	for _, c := range cs {
		if c.data != nil {
			m.spareCkpts = append(m.spareCkpts, c)
		}
	}
}

// CheckpointList is an SRTR run's checkpoint list without the snapshots'
// bytes: the cycle each checkpoint was captured at and how far its
// validation has got. The list lives beside the machine state, not in
// it, so a machine restored from a snapshot taken mid-run needs the list
// that was in force when the snapshot was taken (Checkpoints) to go on
// exactly as the unbroken run does (ResumeCheckpoints).
type CheckpointList struct {
	ckpts []srtrCkpt
}

// meta copies the checkpoint's validation state, without its bytes.
func (c *srtrCkpt) meta() srtrCkpt {
	return srtrCkpt{
		cycle:     c.cycle,
		needSeq:   slices.Clone(c.needSeq),
		needVer:   slices.Clone(c.needVer),
		phase:     slices.Clone(c.phase),
		validated: c.validated,
	}
}

// Checkpoints returns the running SRTR loop's checkpoint list. The list
// changes only at checkpoint boundaries (and rollbacks), so read from
// OnCycle at cycle c it is the list recorded at the last boundary at or
// before c: the one a machine restored from a snapshot taken at c resumes
// from. Outside a run, and in other modes, the list is empty.
func (m *Machine) Checkpoints() CheckpointList {
	l := CheckpointList{ckpts: make([]srtrCkpt, len(m.ckpts))}
	for i, c := range m.ckpts {
		l.ckpts[i] = c.meta()
	}
	return l
}

// ResumeCheckpoints sets the checkpoint list the machine's next SRTR run
// starts from, in place of the trusted entry checkpoint a run captures:
// the list Checkpoints returned when the snapshot this machine was
// restored from was taken. The run works on its own copy, so one list
// can seed any number of runs. Resumed checkpoints hold no bytes: a run
// that rolls back to one must be ended by OnRollback, or it fails to
// restore it.
func (m *Machine) ResumeCheckpoints(l CheckpointList) { m.resume = &l }

// advance moves the checkpoint's validation state machine forward against
// the machine's current progress counters.
func (c *srtrCkpt) advance(m *Machine) {
	if c.validated {
		return
	}
	done := true
	for i, p := range m.Pairs {
		if c.phase[i] == 0 {
			committed := m.Leads[i].Committed()
			if t := m.Trails[i].Committed(); t < committed {
				committed = t
			}
			if committed < c.needSeq[i] {
				done = false
				continue
			}
			c.needVer[i] = p.LeadStoresRetired
			c.phase[i] = 1
		}
		if c.phase[i] == 1 {
			if p.StoresVerified < c.needVer[i] {
				done = false
				continue
			}
			c.phase[i] = 2
		}
	}
	c.validated = done
}

// haltDiverged reports whether any pair's two copies disagree on having
// halted.
func (m *Machine) haltDiverged() bool {
	for i := range m.Pairs {
		if m.Leads[i].Arch.Halted != m.Trails[i].Arch.Halted {
			return true
		}
	}
	return false
}

// runSRTR drives the machine in checkpoint-interval segments, validating
// and capturing checkpoints at each boundary and rolling back on
// detection, deadlock, or persistent halt divergence.
func (m *Machine) runSRTR(maxCycles uint64) (*stats.RunStats, error) {
	interval := m.Spec.CheckpointInterval
	if interval == 0 {
		interval = defaultCheckpointInterval
	}
	// Reset per-run recovery state: fault-engine replays recycle pooled
	// machines through RestoreState, which does not touch engine fields.
	m.Recoveries, m.RecoveryCycles = 0, 0

	m.ckpts = m.ckpts[:0]
	if m.resume != nil {
		// Go on from the list the unbroken run held here.
		for _, c := range m.resume.ckpts {
			c := c.meta()
			m.ckpts = append(m.ckpts, &c)
		}
		m.resume = nil
	} else {
		// The run-entry checkpoint (cycle 0 of a freshly built machine, or
		// the restore point of a mid-run snapshot) is trusted as validated
		// at capture: it precedes every instruction this run executes, and
		// an armed fault cannot have fired before the run started, so no
		// corruption this run will ever detect can be inside it. Without
		// this, a detection arriving before the two-phase pipeline
		// validates any checkpoint (the first couple of intervals) would
		// find no rollback target at all.
		entry := m.capture()
		entry.validated = true
		m.ckpts = append(m.ckpts, entry)
	}
	// Whatever the run still holds when it ends is recycled for the next.
	defer func() {
		m.release(m.ckpts...)
		m.ckpts = m.ckpts[:0]
	}()
	disabled := false

	// recoverTo rolls back to the newest validated checkpoint and reports
	// whether it did; an error ends the run.
	recoverTo := func(trigger uint64) (bool, error) {
		if disabled || m.Recoveries >= maxRecoveries {
			return false, nil
		}
		// Newest validated checkpoint; everything unvalidated is suspect
		// (it may have captured the not-yet-detected corruption) and is
		// discarded alongside anything newer than the restore point.
		var target *srtrCkpt
		for _, c := range m.ckpts {
			if c.validated {
				target = c
			}
		}
		if target == nil {
			return false, nil
		}
		m.Recoveries++
		m.RecoveryCycles += trigger - target.cycle
		if m.OnRollback != nil {
			if err := m.OnRollback(target.cycle); err != nil {
				return false, err
			}
		}
		if err := m.RestoreState(target.data); err != nil {
			return false, fmt.Errorf("sim: SRTR rollback to cycle %d: %w", target.cycle, err)
		}
		kept := m.ckpts[:0]
		for _, c := range m.ckpts {
			if c.validated {
				kept = append(kept, c)
			} else {
				m.release(c)
			}
		}
		m.ckpts = kept
		return true, nil
	}

	var rs *stats.RunStats
	var err error
	for {
		next := m.Cycles - m.Cycles%interval + interval
		if next > maxCycles {
			next = maxCycles
		}
		rs, err = m.Machine.Run(next)
		var dead *pipeline.DeadlockError
		isDeadlock := errors.As(err, &dead)
		if err != nil && !isDeadlock {
			return rs, err
		}
		if len(m.Detections()) > 0 || isDeadlock {
			ok, rerr := recoverTo(m.Cycles)
			if rerr != nil {
				return rs, rerr
			}
			if ok {
				continue
			}
			// Unrecoverable: behave like SRT from here on.
			disabled = true
			if isDeadlock {
				return rs, err
			}
			if m.Spec.StopOnDetection {
				return rs, nil
			}
			// Keep running to completion with the detection standing.
		}
		finished := err == nil && m.Cycles < next
		if finished && m.haltDiverged() && len(m.Detections()) == 0 {
			// Give the trailing copy its normal drain lag before calling
			// the divergence a fault.
			deadline := m.Cycles + haltGraceIntervals*interval
			for m.haltDiverged() && m.Cycles < deadline && len(m.Detections()) == 0 {
				if rs, err = m.Machine.Run(m.Cycles + 1); err != nil {
					return rs, err
				}
			}
			if m.haltDiverged() && len(m.Detections()) == 0 && !disabled {
				ok, rerr := recoverTo(m.Cycles)
				if rerr != nil {
					return rs, rerr
				}
				if ok {
					continue
				}
				disabled = true
			}
			finished = true
		}
		if len(m.Detections()) == 0 {
			for _, c := range m.ckpts {
				c.advance(m)
			}
			// Only the newest validated checkpoint can ever be a restore
			// target; drop older ones to bound memory at roughly the
			// validation lag's worth of snapshots.
			newestValid := -1
			for i, c := range m.ckpts {
				if c.validated {
					newestValid = i
				}
			}
			if newestValid > 0 {
				m.release(m.ckpts[:newestValid]...)
				m.ckpts = append(m.ckpts[:0], m.ckpts[newestValid:]...)
			}
			if !finished && m.Cycles%interval == 0 {
				m.ckpts = append(m.ckpts, m.capture())
			}
		}
		if finished || m.Cycles >= maxCycles {
			return rs, nil
		}
	}
}
