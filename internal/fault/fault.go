// Package fault provides the fault models and injection campaigns used to
// demonstrate RMT's detection capability: single-bit transient flips
// injected into one copy of a redundant pair (a cosmic-ray strike on a
// latch), and the permanent-fault coverage analysis behind preferential
// space redundancy.
//
// A transient fault is injected into the functional execution of exactly one
// hardware thread, so the corrupted value propagates through that copy's
// architectural state exactly as a real strike would: it may be masked
// (overwritten before use), or reach the sphere-of-replication boundary
// where the store comparator / load value queue / line prediction stream
// flags the divergence.
package fault

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Copy selects which copy of the redundant pair a fault strikes.
type Copy int

// Fault targets.
const (
	// LeadingCopy strikes the leading thread.
	LeadingCopy Copy = iota
	// TrailingCopy strikes the trailing thread.
	TrailingCopy
)

func (c Copy) String() string {
	if c == TrailingCopy {
		return "trailing"
	}
	return "leading"
}

// Transient is a single-bit transient fault: at the victim copy's AtSeq-th
// dynamically executed instruction, flip bit Bit of the value at Point.
type Transient struct {
	// Logical selects which redundant pair (program) to strike.
	Logical int
	// Target selects the leading or trailing copy.
	Target Copy
	// AtSeq is the victim's dynamic instruction number.
	AtSeq uint64
	// Point is the dataflow location to corrupt.
	Point vm.CorruptPoint
	// Bit is the bit to flip (0..63).
	Bit uint
}

func (t Transient) String() string {
	return fmt.Sprintf("transient{pair %d %s seq %d point %d bit %d}",
		t.Logical, t.Target, t.AtSeq, t.Point, t.Bit)
}

// Arm attaches the fault to a built machine. The returned function reports
// whether the fault has fired (some dynamic paths never reach AtSeq with a
// matching corruption point) and, once it has, the machine cycle it fired
// at: core 0's cycle count when the victim executed the corrupted
// instruction.
func (t Transient) Arm(m *sim.Machine) (fired func() (bool, uint64), err error) {
	if t.Logical < 0 || t.Logical >= len(m.Leads) {
		return nil, fmt.Errorf("fault: no logical thread %d", t.Logical)
	}
	ctx := m.Leads[t.Logical]
	if t.Target == TrailingCopy {
		ctx = m.Trails[t.Logical]
	}
	if ctx == nil {
		return nil, fmt.Errorf("fault: machine has no %v copy for logical thread %d (mode %v)",
			t.Target, t.Logical, m.Spec.Mode)
	}
	// Locate the victim context for the event log (pid=core, tid=thread).
	core, tid := 0, ctx.TID
	if t.Logical < len(m.Pairs) {
		p := m.Pairs[t.Logical]
		if t.Target == TrailingCopy {
			core = p.TrailCore
		} else {
			core = p.LeadCore
		}
	}
	didFire, fireCycle := false, uint64(0)
	prev := ctx.Arch.Corrupt
	ctx.Arch.Corrupt = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
		if prev != nil {
			v = prev(point, seq, pc, v)
		}
		if !didFire && seq >= t.AtSeq && point == t.Point {
			didFire, fireCycle = true, m.Cores[0].Cycle()
			if m.Events != nil {
				m.Events.Inject(core, tid, m.Cores[core].Cycle(), seq, pc,
					fmt.Sprintf("%v copy, point %d, bit %d", t.Target, int(t.Point), t.Bit))
			}
			return v ^ (1 << (t.Bit & 63))
		}
		return v
	}
	return func() (bool, uint64) { return didFire, fireCycle }, nil
}

// Outcome classifies one injection run.
type Outcome int

// Injection outcomes.
const (
	// Detected: the machine flagged a mismatch at the sphere boundary.
	Detected Outcome = iota
	// Masked: the corrupted value never reached an output — architecturally
	// benign (dead value, overwritten register, idempotent store).
	Masked
	// NotFired: the run ended before the injection point was reached.
	NotFired
	// Recovered (SRTR only): the machine detected the corruption, rolled
	// back to a validated checkpoint, and re-executed to a final
	// architectural state byte-identical to the fault-free run.
	Recovered
	// UnprotectedSDC (adaptive only): the fault fired in an unprotected
	// region, was never detected, and the final architectural state
	// diverges from the fault-free run — silent data corruption, the
	// coverage cost of partial redundancy.
	UnprotectedSDC
)

func (o Outcome) String() string {
	switch o {
	case Detected:
		return "detected"
	case Masked:
		return "masked"
	case NotFired:
		return "not-fired"
	case Recovered:
		return "recovered"
	case UnprotectedSDC:
		return "unprotected-sdc"
	}
	return "outcome?"
}

// Result is one injection's classification.
type Result struct {
	Fault   Transient
	Outcome Outcome
	// DetectionCycles is the cycle count from injection to the first
	// recorded mismatch (Detected only).
	DetectionCycles uint64
	// Cycles is the total number of cycles the trial simulated, whatever
	// the outcome — the campaign's unit of simulation work.
	Cycles uint64
	// Recoveries and RecoveryCycles account SRTR rollbacks (Recovered
	// only): how many the trial performed and the total cycles re-executed.
	// Scalars, so Result stays comparable (the engines diff results with ==).
	Recoveries     int
	RecoveryCycles uint64
}

// CampaignSummary aggregates a campaign.
type CampaignSummary struct {
	Runs     int
	Detected int
	Masked   int
	NotFired int
	// Recovered counts SRTR trials that rolled back and re-executed to the
	// fault-free state.
	Recovered int
	// UnprotectedSDC counts adaptive trials whose undetected corruption
	// reached final architectural state.
	UnprotectedSDC int
	// MeanDetectionCycles averages detection latency over detected runs.
	MeanDetectionCycles float64
	// MeanRecoveryCycles averages the cycles re-executed per rollback over
	// recovered runs (the SRTR recovery-latency figure of merit).
	MeanRecoveryCycles float64
	// TotalCycles sums the simulated cycles of every trial: the campaign's
	// total simulation work, used to express throughput as cycles/second.
	TotalCycles uint64
	Results     []Result
}

// Coverage returns the fraction of fired faults the machine handled —
// detected at the sphere boundary or detected-and-recovered — over all
// fired faults. Masked counts in the denominator (a masked fault was
// handled by luck, not the mechanism, but is also benign); UnprotectedSDC
// is the outcome coverage loses to.
func (s *CampaignSummary) Coverage() float64 {
	fired := s.Detected + s.Recovered + s.Masked + s.UnprotectedSDC
	if fired == 0 {
		return 0
	}
	return float64(s.Detected+s.Recovered) / float64(fired)
}

// Add pools o's trial counts and cycles into s, so Coverage reads the
// pooled rate over several campaigns. The mean latencies and the per-trial
// results are not pooled.
func (s *CampaignSummary) Add(o *CampaignSummary) {
	s.Runs += o.Runs
	s.Detected += o.Detected
	s.Masked += o.Masked
	s.NotFired += o.NotFired
	s.Recovered += o.Recovered
	s.UnprotectedSDC += o.UnprotectedSDC
	s.TotalCycles += o.TotalCycles
}

// rng is a small deterministic xorshift generator so campaigns are exactly
// reproducible.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// Plan draws the deterministic fault sequence a campaign over spec with
// this seed injects: trial i of the campaign injects Plan(spec, n, seed)[i].
// Drawing the whole plan from the serial generator before any trial runs is
// what lets Campaign shard trials across workers without changing a single
// outcome.
func Plan(spec sim.Spec, n int, seed uint64) []Transient {
	r := rng(seed | 1)
	points := []vm.CorruptPoint{vm.PointResult, vm.PointStoreData, vm.PointLoadValue, vm.PointStoreAddr}
	faults := make([]Transient, n)
	for i := range faults {
		faults[i] = Transient{
			// Reduce in uint64 space: casting the raw draw to int first can
			// go negative, and a negative % yields an unarmable pair index.
			Logical: int(r.next() % uint64(max(len(spec.Programs), 1))),
			Target:  Copy(r.next() % 2),
			AtSeq:   spec.Warmup/2 + r.next()%(spec.Warmup/2+spec.Budget/2+1),
			Point:   points[r.next()%uint64(len(points))],
			Bit:     uint(r.next() % 64),
		}
	}
	return faults
}

// Campaign runs n injection trials against the configuration described by
// spec, whose mode must be paired (sim.Mode.Paired). Each trial injects one
// transient at a pseudo-random point after warmup (trial i injects
// Plan(spec, n, seed)[i]) and classifies the outcome. n == 0 yields an
// empty summary; a negative n is an error.
//
// Trials run on the fork-on-fault engine: the fault-free (golden) run is
// simulated once, with machine-state checkpoints taken at a fixed cycle
// interval, and then every trial is one runner job, in trial order. The
// job of a trial whose fault never fires classifies it from golden end
// state; the job of a fired trial restores the last checkpoint before its
// injection point and replays only the suffix instead of re-simulating the
// whole prefix. Replay machines are recycled through a pool (restore
// overwrites all mutable state), so steady-state trial cost is one
// snapshot decode plus the suffix cycles. The fault plan is fixed before
// the first trial starts and the runner returns results by trial index, so
// the summary — including per-trial outcome order — is identical at any
// parallelism, and byte-identical to building and simulating every trial
// from scratch.
//
// opts is the campaign's run policy, handed to runner.Run with the trial
// jobs, so Progress and OnReport count trials and Cancel is polled before
// each one. Cancel is also polled before the golden pass and at each of
// its checkpoint boundaries; the golden pass runs outside the pool and
// its time is not in the report.
func Campaign(spec sim.Spec, n int, seed uint64, opts runner.Options) (*CampaignSummary, error) {
	if !spec.Mode.Paired() {
		return nil, fmt.Errorf("fault: campaign requires a paired mode (a leading/trailing pair to strike), got %v", spec.Mode)
	}
	if n < 0 {
		return nil, fmt.Errorf("fault: campaign trial count %d is negative", n)
	}
	spec.StopOnDetection = true
	if opts.Cancel == nil {
		opts.Cancel = func() error { return nil }
	}
	if err := opts.Cancel(); err != nil {
		return nil, err
	}
	faults := Plan(spec, n, seed)
	prep, err := forkPrepare(spec, faults, opts.Cancel)
	if err != nil {
		return nil, fmt.Errorf("fault: golden run: %w", err)
	}
	jobs := make([]func() (Result, error), n)
	for i, f := range faults {
		jobs[i] = func() (Result, error) {
			if !prep.fired[i] {
				return prep.classifyUnfired(f), nil
			}
			res, err := prep.replay(spec, f, i)
			if err != nil {
				return Result{}, fmt.Errorf("fault: trial %d (%v): %w", i, f, err)
			}
			return res, nil
		}
	}
	results, _, err := runner.Run(jobs, opts)
	if err != nil {
		return nil, err
	}
	return summarize(n, results), nil
}

// summarize aggregates per-trial results into the campaign summary; shared
// by both engines so aggregation can never diverge between them.
func summarize(n int, results []Result) *CampaignSummary {
	sum := &CampaignSummary{Runs: n, Results: results}
	var totalLatency, totalRecovery uint64
	for _, res := range results {
		sum.TotalCycles += res.Cycles
		switch res.Outcome {
		case Detected:
			sum.Detected++
			totalLatency += res.DetectionCycles
		case Masked:
			sum.Masked++
		case NotFired:
			sum.NotFired++
		case Recovered:
			sum.Recovered++
			totalRecovery += res.RecoveryCycles
		case UnprotectedSDC:
			sum.UnprotectedSDC++
		}
	}
	if sum.Detected > 0 {
		sum.MeanDetectionCycles = float64(totalLatency) / float64(sum.Detected)
	}
	if sum.Recovered > 0 {
		sum.MeanRecoveryCycles = float64(totalRecovery) / float64(sum.Recovered)
	}
	return sum
}

// checkpointInterval is the golden-run checkpoint spacing in machine
// iterations. A trial replays from the last checkpoint at or before its
// fire iteration; an armed fault is silent until its exact injection point,
// so the replayed prefix re-executes the golden run bit-for-bit and the
// interval trades at most this many re-simulated cycles per trial against
// the cost of encoding checkpoints nobody replays from.
const checkpointInterval = 1024

// convergenceChecks bounds how many checkpoint boundaries past its fire a
// replay trial compares itself against the golden run before giving up and
// simulating to the end. Masked faults die fast — the corrupted value is
// overwritten and the machine state rejoins the golden run bitwise within a
// boundary or two — so a small bound captures the early exits while capping
// the snapshot-encode cost of trials that genuinely diverge.
const convergenceChecks = 2

// errConverged ends a replay whose remaining cycles are provably the golden
// run's: its state became byte-identical to a golden checkpoint, or (SRTR)
// it rolled back to a checkpoint taken before its fault fired. Either way
// the one-shot transient cannot act again, so the trial's outcome is known
// without simulating the rest.
var errConverged = errors.New("fault: replay converged with golden run")

// forkPrep carries what the golden pass learned: per fault, whether it
// fires and at which machine iteration; periodic checkpoints covering every
// fire; the golden run's end state for classifying unfired trials; and a
// pool of machines recycled across replay trials.
type forkPrep struct {
	fired    []bool
	fireIter []uint64              // machine iteration (Machine.Cycles) at fire
	snaps    map[uint64]goldenCkpt // checkpoint iteration -> checkpoint
	pool     sync.Pool             // recycled *replayMachine for replay trials

	endCycle     uint64 // Cores[0].Cycle() at golden completion
	detections   int    // golden detections (0 in a healthy machine)
	haltDiverged []bool // per logical: lead/trail halt states diverged

	// golden, when non-nil (adaptive only), is the fault-free run's final
	// architectural digest, the reference undetected trials are classified
	// against (Masked vs UnprotectedSDC).
	golden *[32]byte
}

// goldenCkpt is one checkpoint of the golden run: its machine snapshot and,
// in SRTR campaigns, the run's SRTR checkpoint list in force there, which
// a replay restored from the snapshot resumes so that it validates and
// rolls back exactly as the unbroken run does.
type goldenCkpt struct {
	snap []byte
	list sim.CheckpointList
}

// replayMachine is a machine the replay pool recycles across trials, with
// the buffer its convergence checks encode into: the buffer grows to a
// snapshot's size once and is reused by every later check.
type replayMachine struct {
	*sim.Machine
	scratch []byte
}

// base returns the checkpoint iteration a fired trial replays from: the
// last checkpoint at or before its fire iteration.
func (p *forkPrep) base(i int) uint64 {
	return p.fireIter[i] - p.fireIter[i]%checkpointInterval
}

// classifyUnfired reproduces runArmed's classification for a trial whose
// fault never fires: such a trial's machine executes the golden run
// bit-for-bit (an armed-but-silent fault and oracle tolerance change
// nothing on a fault-free path), so its outcome is a function of golden end
// state alone.
func (p *forkPrep) classifyUnfired(f Transient) Result {
	res := Result{Fault: f, Cycles: p.endCycle}
	switch {
	case p.detections > 0 || p.haltDiverged[f.Logical]:
		res.Outcome = Detected
		res.DetectionCycles = p.endCycle // fireCycle 0, end > 0
	default:
		res.Outcome = NotFired
	}
	return res
}

// forkPrepare runs the golden simulation once, doing two things at the same
// time: read-only observers record (without perturbing) the machine
// iteration where each planned fault first fires, and the OnCycle hook
// captures a state checkpoint every checkpointInterval iterations, with
// the SRTR checkpoint list in force there. The observers return every
// value unchanged and snapshot encoding only reads state, so the pass
// executes the identical fault-free run. cancel is polled at every
// checkpoint boundary, so a cancelled campaign stops within
// checkpointInterval cycles. Checkpoints no fired fault replays from are
// dropped afterwards, and the golden machine itself seeds the replay pool.
func forkPrepare(spec sim.Spec, faults []Transient, cancel func() error) (*forkPrep, error) {
	p := &forkPrep{
		fired:    make([]bool, len(faults)),
		fireIter: make([]uint64, len(faults)),
		snaps:    make(map[uint64]goldenCkpt),
	}
	g, err := sim.Build(spec)
	if err != nil {
		return nil, err
	}
	// firedCount and maxFire track fire discovery as the golden run
	// progresses, so checkpointing can stop once no future checkpoint could
	// be replayed from or converged against.
	firedCount, maxFire := 0, uint64(0)
	// Group fault indices by victim context in deterministic (logical,
	// target) order and install one read-only observer per victim. The
	// observer mirrors Arm's trigger condition per fault — first call with
	// seq >= AtSeq at the matching point — and records the machine
	// iteration, which is the cycle to snapshot before.
	for logical := 0; logical < len(g.Leads); logical++ {
		for _, target := range []Copy{LeadingCopy, TrailingCopy} {
			var mine []int
			for i, f := range faults {
				if f.Logical == logical && f.Target == target {
					mine = append(mine, i)
				}
			}
			if len(mine) == 0 {
				continue
			}
			ctx := g.Leads[logical]
			if target == TrailingCopy {
				ctx = g.Trails[logical]
			}
			if ctx == nil {
				return nil, fmt.Errorf("no %v copy for logical thread %d (mode %v)",
					target, logical, spec.Mode)
			}
			ctx.Arch.Corrupt = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
				for _, i := range mine {
					if !p.fired[i] && seq >= faults[i].AtSeq && point == faults[i].Point {
						p.fired[i] = true
						p.fireIter[i] = g.Cycles
						firedCount++
						if g.Cycles > maxFire {
							maxFire = g.Cycles
						}
					}
				}
				return v
			}
		}
	}
	g.OnCycle = func(cycle uint64) error {
		if cycle%checkpointInterval != 0 {
			return nil
		}
		if err := cancel(); err != nil {
			return err
		}
		// Once every fault has fired, checkpoints are only useful as
		// convergence references for the latest fire; past that horizon
		// nothing can replay from or compare against them.
		if firedCount == len(faults) &&
			cycle > maxFire-maxFire%checkpointInterval+convergenceChecks*checkpointInterval {
			return nil
		}
		snap, err := g.Snapshot()
		if err != nil {
			return err
		}
		c := goldenCkpt{snap: snap}
		if spec.Mode == sim.ModeSRTR {
			c.list = g.Checkpoints()
		}
		p.snaps[cycle] = c
		return nil
	}
	if _, err := g.Run(); err != nil {
		return nil, err
	}
	p.endCycle = g.Cores[0].Cycle()
	p.detections = len(g.Detections())
	p.haltDiverged = make([]bool, len(g.Leads))
	for i := range g.Leads {
		if tr := g.Trails[i]; tr != nil {
			p.haltDiverged[i] = g.Leads[i].Arch.Halted != tr.Arch.Halted
		}
	}
	if spec.Mode == sim.ModeAdaptive {
		d := g.ArchDigest()
		p.golden = &d
	}
	// SRTR replays resume the golden run's checkpoint lists and end at a
	// rollback to a pre-fire checkpoint as golden state: both hold only for
	// a fault-free run that itself never needed a rollback.
	if spec.Mode == sim.ModeSRTR && (p.detections > 0 || slices.Contains(p.haltDiverged, true)) {
		return nil, fmt.Errorf("SRTR fault-free run ends with %d standing detections (halt divergence: %v): its checkpoints cannot seed replays",
			p.detections, p.haltDiverged)
	}
	// Checkpoints before the earliest replay base serve neither as restore
	// points nor as convergence references; drop them. Everything later
	// stays: a trial may replay from it, or compare against it to prove it
	// has rejoined the golden run.
	minBase, anyFired := ^uint64(0), false
	for i := range faults {
		if p.fired[i] {
			base := p.base(i)
			if _, ok := p.snaps[base]; !ok {
				return nil, fmt.Errorf("golden run has no checkpoint %d for fire cycle %d", base, p.fireIter[i])
			}
			minBase = min(minBase, base)
			anyFired = true
		}
	}
	for cycle := range p.snaps {
		if !anyFired || cycle < minBase {
			delete(p.snaps, cycle)
		}
	}
	// The golden machine's job is done; strip its hooks and let the first
	// replay trial recycle it instead of building from scratch.
	g.OnCycle = nil
	clearCorruptHooks(g)
	p.pool.Put(&replayMachine{Machine: g})
	return p, nil
}

// clearCorruptHooks detaches every corruption closure from the machine.
// Arm chains onto Arch.Corrupt and hook wiring is deliberately outside the
// snapshot, so a recycled machine must shed the previous trial's closures
// before it is re-armed.
func clearCorruptHooks(m *sim.Machine) {
	for i := range m.Leads {
		m.Leads[i].Arch.Corrupt = nil
		if tr := m.Trails[i]; tr != nil {
			tr.Arch.Corrupt = nil
		}
	}
}

// replay restores trial i's golden checkpoint into a pooled machine (or a
// fresh build when the pool is empty), arms the fault, and replays the
// suffix. RestoreState replaces all mutable simulated state, so a machine
// that just finished another trial restores as cleanly as a fresh one; the
// machine returns to the pool only after a successful trial. An SRTR
// replay also resumes the golden run's checkpoint list at its checkpoint,
// so it holds the rollback targets the from-scratch run holds.
//
// When the golden run is healthy, the replay also watches for convergence:
// at the first checkpoint boundaries past the fire, the trial's state is
// compared bytewise against the golden checkpoint at the same cycle. A
// match proves the fault's effects have died out entirely — every later
// cycle of the trial IS the golden run — so the trial ends immediately with
// the masked outcome and the golden end cycle, exactly what simulating the
// rest would produce. An SRTR rollback to a checkpoint taken at or before
// the fire cycle ends the trial the same way without restoring it: that
// checkpoint holds the golden run's state, and the transient has fired.
func (p *forkPrep) replay(spec sim.Spec, f Transient, i int) (Result, error) {
	m, _ := p.pool.Get().(*replayMachine)
	if m == nil {
		b, err := sim.Build(spec)
		if err != nil {
			return Result{}, err
		}
		m = &replayMachine{Machine: b}
	}
	clearCorruptHooks(m.Machine)
	ckpt, fire := p.snaps[p.base(i)], p.fireIter[i]
	if err := m.RestoreState(ckpt.snap); err != nil {
		return Result{}, err
	}
	m.OnCycle, m.OnRollback = nil, nil
	if spec.Mode == sim.ModeSRTR {
		m.ResumeCheckpoints(ckpt.list)
		m.OnRollback = func(target uint64) error {
			if target <= fire {
				return errConverged
			}
			return nil
		}
	}
	if p.detections == 0 && !p.haltDiverged[f.Logical] {
		checks := 0
		m.OnCycle = func(cycle uint64) error {
			if cycle%checkpointInterval != 0 || cycle <= fire || checks >= convergenceChecks {
				return nil
			}
			gsnap := p.snaps[cycle].snap
			if gsnap == nil || len(m.Detections()) > 0 {
				return nil
			}
			checks++
			if m.convergedWithGolden(f, gsnap) {
				return errConverged
			}
			return nil
		}
	}
	res, err := runArmed(m.Machine, f, p.golden)
	if errors.Is(err, errConverged) {
		// Byte-identical to the golden run from here on: the rest of the
		// trial is provably the golden suffix. If the machine rolled back
		// to get there, the convergence is the proof of recovery.
		res = Result{Fault: f, Outcome: Masked, Cycles: p.endCycle}
		if m.Recoveries > 0 {
			res.Outcome = Recovered
			res.Recoveries = m.Recoveries
			res.RecoveryCycles = m.RecoveryCycles
		}
		err = nil
	}
	if err != nil {
		return Result{}, err
	}
	m.OnCycle, m.OnRollback = nil, nil
	p.pool.Put(m)
	return res, nil
}

// convergedWithGolden reports whether the trial machine's state is
// byte-identical to a golden checkpoint taken at the same cycle. The only
// serialized field the replay harness itself perturbs is the victim pair's
// Tolerant flag, so it is masked off for the comparison; everything else
// must match bit-for-bit for convergence to hold. The trial's snapshot is
// encoded into the machine's scratch buffer.
func (m *replayMachine) convergedWithGolden(f Transient, gsnap []byte) bool {
	lead := m.Leads[f.Logical]
	trail := m.Trails[f.Logical]
	lt := lead.Arch.Tolerant
	lead.Arch.Tolerant = false
	var tt bool
	if trail != nil {
		tt = trail.Arch.Tolerant
		trail.Arch.Tolerant = false
	}
	m.scratch = m.AppendSnapshot(m.scratch[:0])
	lead.Arch.Tolerant = lt
	if trail != nil {
		trail.Arch.Tolerant = tt
	}
	return bytes.Equal(m.scratch, gsnap)
}

// RunOne builds a machine for spec, injects the single fault, runs to
// detection or completion, and classifies the outcome. For adaptive specs
// it first simulates the fault-free run to obtain the architectural
// reference digest; campaigns amortise that golden run across trials.
func RunOne(spec sim.Spec, f Transient) (Result, error) {
	golden, err := goldenDigest(spec)
	if err != nil {
		return Result{}, err
	}
	return runOneWith(spec, f, golden)
}

// goldenDigest returns the fault-free run's final architectural digest for
// adaptive specs, and nil for every other mode (they classify entirely at
// the detection boundary).
func goldenDigest(spec sim.Spec) (*[32]byte, error) {
	if spec.Mode != sim.ModeAdaptive {
		return nil, nil
	}
	g, err := sim.Build(spec)
	if err != nil {
		return nil, err
	}
	if _, err := g.Run(); err != nil {
		return nil, err
	}
	d := g.ArchDigest()
	return &d, nil
}

// runOneWith is RunOne with the golden digest supplied by the caller.
func runOneWith(spec sim.Spec, f Transient, golden *[32]byte) (Result, error) {
	spec.StopOnDetection = true
	m, err := sim.Build(spec)
	if err != nil {
		return Result{}, err
	}
	return runArmed(m, f, golden)
}

// runArmed arms f on a ready machine (fresh or restored), runs to detection
// or completion, and classifies the outcome. golden, when non-nil, is the
// fault-free architectural digest undetected adaptive trials are compared
// against.
func runArmed(m *sim.Machine, f Transient, golden *[32]byte) (Result, error) {
	fired, err := f.Arm(m)
	if err != nil {
		return Result{}, err
	}
	// A corrupted jump target may leave the code image; let the victim
	// pair's oracles halt gracefully so the divergence is flagged rather
	// than crashing the simulation.
	m.Leads[f.Logical].Arch.Tolerant = true
	if tr := m.Trails[f.Logical]; tr != nil {
		tr.Arch.Tolerant = true
	}
	if _, err := m.Run(); err != nil {
		// The fork engine's early exit ends the trial whatever the
		// detections: an SRTR rollback to a pre-fire checkpoint stops with
		// its detection standing. Otherwise a deadlock after divergence can
		// only follow an unrecorded divergence; treat any watchdog error
		// with detections as detected, otherwise propagate.
		if errors.Is(err, errConverged) || len(m.Detections()) == 0 {
			return Result{}, err
		}
	}
	// A corrupted jump that leaves the code image halts one copy; the two
	// copies' halt states diverging is an observable failure (the trailing
	// store stream stops matching / the checker watchdog fires), so it
	// counts as detected.
	haltDivergence := false
	if tr := m.Trails[f.Logical]; tr != nil {
		haltDivergence = m.Leads[f.Logical].Arch.Halted != tr.Arch.Halted
	}
	didFire, fireCycle := fired()
	res := Result{Fault: f, Cycles: m.Cores[0].Cycle()}
	switch {
	case len(m.Detections()) > 0 || haltDivergence:
		// Standing detections: either a non-recovering mode, or SRTR out
		// of rollback targets/recovery budget.
		res.Outcome = Detected
		end := m.Cores[0].Cycle()
		if end > fireCycle {
			res.DetectionCycles = end - fireCycle
		}
	case !didFire:
		res.Outcome = NotFired
	case m.Recoveries > 0:
		// SRTR rolled back past the corruption and re-executed the golden
		// suffix (the transient is one-shot, so it cannot re-fire).
		res.Outcome = Recovered
		res.Recoveries = m.Recoveries
		res.RecoveryCycles = m.RecoveryCycles
	case golden != nil && m.ArchDigest() != *golden:
		res.Outcome = UnprotectedSDC
	default:
		res.Outcome = Masked
	}
	return res, nil
}
