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
	"sort"
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
// matching corruption point).
func (t Transient) Arm(m *sim.Machine) (fired func() bool, err error) {
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
	didFire := false
	prev := ctx.Arch.Corrupt
	ctx.Arch.Corrupt = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
		if prev != nil {
			v = prev(point, seq, pc, v)
		}
		if !didFire && seq >= t.AtSeq && point == t.Point {
			didFire = true
			if m.Events != nil {
				m.Events.Inject(core, tid, m.Cores[core].Cycle(), seq, pc,
					fmt.Sprintf("%v copy, point %d, bit %d", t.Target, int(t.Point), t.Bit))
			}
			return v ^ (1 << (t.Bit & 63))
		}
		return v
	}
	return func() bool { return didFire }, nil
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

// replayChunkSize bounds how many replay trials ride in one worker job.
// Trials in a chunk share a golden checkpoint, so a worker restores from
// the same (cache-hot) snapshot bytes back to back and recycles one pooled
// machine across the whole chunk instead of bouncing it through the pool
// per trial. The bound keeps chunks small enough to load-balance across
// workers when fires cluster around one checkpoint.
const replayChunkSize = 8

// Campaign runs n injection trials against the configuration described by
// spec, whose mode must be paired (sim.Mode.Paired). Each trial injects one
// transient at a pseudo-random point after warmup (trial i injects
// Plan(spec, n, seed)[i]) and classifies the outcome. n == 0 yields an
// empty summary; a negative n is an error.
//
// Trials run on the fork-on-fault engine, sharded across a worker pool: the
// fault-free (golden) run is simulated once, with machine-state checkpoints
// taken at a fixed cycle interval, and each trial restores the last
// checkpoint before its injection point and replays only the suffix instead
// of re-simulating the whole prefix. Trials whose fault never fires are
// classified inline from golden end state; the rest are grouped into chunks
// sharing a golden checkpoint (see replayChunkSize) and sharded across the
// pool. Replay machines are recycled through a pool (restore overwrites all
// mutable state), so steady-state trial cost is one snapshot decode plus the
// suffix cycles. The fault plan is fixed before the first trial starts and
// results are written by trial index, so the summary — including per-trial
// outcome order — is identical at any parallelism, and byte-identical to
// building and simulating every trial from scratch.
//
// opts is the campaign's run policy: Progress counts trials, not worker
// jobs; Cancel is polled before the golden pass, at each of its checkpoint
// boundaries and before each trial; OnReport receives the replay pool's
// timing report.
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

	// Campaign-owned per-trial progress: workers complete whole chunks, but
	// the caller still sees trial counts.
	var progMu sync.Mutex
	doneTrials := 0
	trialsDone := func(k int) {
		if opts.Progress == nil || k == 0 {
			return
		}
		progMu.Lock()
		doneTrials += k
		opts.Progress(doneTrials, n)
		progMu.Unlock()
	}

	// Classify unfired trials inline — their outcome is a function of
	// golden end state, no replay involved.
	results := make([]Result, n)
	var replays []int
	for i, f := range faults {
		if prep.fired[i] {
			replays = append(replays, i)
		} else {
			results[i] = prep.classifyUnfired(f)
		}
	}
	trialsDone(n - len(replays))

	chunks := chunkByCheckpoint(replays, prep)
	jobs := make([]func() (struct{}, error), len(chunks))
	for ci, chunk := range chunks {
		chunk := chunk
		jobs[ci] = func() (struct{}, error) {
			for _, i := range chunk {
				if err := opts.Cancel(); err != nil {
					return struct{}{}, err
				}
				f := faults[i]
				res, err := prep.replay(spec, f, i)
				if err != nil {
					return struct{}{}, fmt.Errorf("fault: trial %d (%v): %w", i, f, err)
				}
				results[i] = res
				trialsDone(1)
			}
			return struct{}{}, nil
		}
	}
	pool := opts
	pool.Progress = nil // trialsDone reports trials, not chunks
	if _, _, err := runner.Run(jobs, pool); err != nil {
		return nil, err
	}
	return summarize(n, results), nil
}

// chunkByCheckpoint groups replay trials by the golden checkpoint they
// restore from and splits each group into chunks of at most
// replayChunkSize, in ascending (checkpoint, trial index) order. Chunks
// write disjoint trial indices, so scheduling order cannot affect the
// summary.
func chunkByCheckpoint(replays []int, prep *forkPrep) [][]int {
	byBase := make(map[uint64][]int)
	var bases []uint64
	for _, i := range replays {
		base := prep.restoreBase(i)
		if byBase[base] == nil {
			bases = append(bases, base)
		}
		byBase[base] = append(byBase[base], i)
	}
	sort.Slice(bases, func(a, b int) bool { return bases[a] < bases[b] })
	var chunks [][]int
	for _, base := range bases {
		g := byBase[base]
		for len(g) > replayChunkSize {
			chunks = append(chunks, g[:replayChunkSize])
			g = g[replayChunkSize:]
		}
		if len(g) > 0 {
			chunks = append(chunks, g)
		}
	}
	return chunks
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

// srtrReplayHistory is how many extra checkpoint intervals of golden
// snapshot history an SRTR replay keeps (and restores) below each fire's
// checkpoint base. Two intervals comfortably cover the checkpoint
// validation lag (bounded by the pair's slack: RVQ/LPQ depth worth of
// commits plus store-comparator drain), so by the time the fault fires the
// replayed machine has re-validated a rollback target at the same cycle the
// from-scratch (legacy) run holds as its newest validated checkpoint.
const srtrReplayHistory = 2

// errConverged aborts a replay whose state has become byte-identical to the
// golden run: the rest of the trial is provably the golden suffix, so its
// outcome is known without simulating it.
var errConverged = errors.New("fault: replay converged with golden run")

// forkPrep carries what the golden pass learned: per fault, whether it
// fires and at which machine iteration; periodic checkpoints covering every
// fire; the golden run's end state for classifying unfired trials; and a
// pool of machines recycled across replay trials.
type forkPrep struct {
	fired    []bool
	fireIter []uint64          // machine iteration (Machine.Cycles) at fire
	snaps    map[uint64][]byte // checkpoint iteration -> snapshot
	pool     sync.Pool         // recycled *replayMachine for replay trials

	endCycle     uint64 // Cores[0].Cycle() at golden completion
	detections   int    // golden detections (0 in a healthy machine)
	haltDiverged []bool // per logical: lead/trail halt states diverged

	// history widens the replay window below each fire's checkpoint base
	// (SRTR only, 0 otherwise): a restored SRTR machine must re-validate
	// its entry checkpoint before it can roll back to it, so the replay
	// starts early enough that validation completes — and the machine holds
	// the same newest-validated rollback target a from-scratch run would —
	// before the fault fires.
	history uint64
	// golden, when non-nil (adaptive only), is the fault-free run's final
	// architectural digest, the reference undetected trials are classified
	// against (Masked vs UnprotectedSDC).
	golden *[32]byte
}

// replayMachine is a machine the replay pool recycles across trials, with
// the buffer its convergence checks encode into: the buffer grows to a
// snapshot's size once and is reused by every later check.
type replayMachine struct {
	*sim.Machine
	scratch []byte
}

// restoreBase returns the checkpoint iteration a fired trial replays from:
// the last checkpoint at or before its fire iteration, walked down by up to
// history cycles of retained earlier checkpoints (see forkPrep.history).
// The golden run reached the fire iteration, so every checkpoint boundary
// in the window was crossed and the lookups cannot miss.
func (p *forkPrep) restoreBase(i int) uint64 {
	base := p.fireIter[i] - p.fireIter[i]%checkpointInterval
	lo := uint64(0)
	if base > p.history {
		lo = base - p.history
	}
	for base > lo && p.snaps[base-checkpointInterval] != nil {
		base -= checkpointInterval
	}
	return base
}

// checkpointFor returns the snapshot trial i replays from.
func (p *forkPrep) checkpointFor(i int) []byte {
	return p.snaps[p.restoreBase(i)]
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
// captures a state checkpoint every checkpointInterval iterations. The
// observers return every value unchanged and snapshot encoding only reads
// state, so the pass executes the identical fault-free run. cancel is
// polled at every checkpoint boundary, so a cancelled campaign stops within
// checkpointInterval cycles. Checkpoints no fired fault replays from are
// dropped afterwards, and the golden machine itself seeds the replay pool.
func forkPrepare(spec sim.Spec, faults []Transient, cancel func() error) (*forkPrep, error) {
	p := &forkPrep{
		fired:    make([]bool, len(faults)),
		fireIter: make([]uint64, len(faults)),
		snaps:    make(map[uint64][]byte),
	}
	if spec.Mode == sim.ModeSRTR {
		p.history = srtrReplayHistory * checkpointInterval
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
		p.snaps[cycle] = snap
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
	// Checkpoints before the earliest replay base serve neither as restore
	// points nor as convergence references; drop them (for SRTR the window
	// extends history cycles lower — see restoreBase). Everything later
	// stays: a trial may replay from it, or compare against it to prove it
	// has rejoined the golden run.
	minBase, anyFired := ^uint64(0), false
	for i := range faults {
		if p.fired[i] {
			base := p.fireIter[i] - p.fireIter[i]%checkpointInterval
			if p.snaps[base] == nil {
				return nil, fmt.Errorf("golden run has no checkpoint %d for fire cycle %d", base, p.fireIter[i])
			}
			if base < minBase {
				minBase = base
			}
			anyFired = true
		}
	}
	keepFrom := uint64(0)
	if minBase > p.history {
		keepFrom = minBase - p.history
	}
	for cycle := range p.snaps {
		if !anyFired || cycle < keepFrom {
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
// machine returns to the pool only after a successful trial.
//
// When the golden run is healthy, the replay also watches for convergence:
// at the first checkpoint boundaries past the fire, the trial's state is
// compared bytewise against the golden checkpoint at the same cycle. A
// match proves the fault's effects have died out entirely — every later
// cycle of the trial IS the golden run — so the trial ends immediately with
// the masked outcome and the golden end cycle, exactly what simulating the
// rest would produce.
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
	if err := m.RestoreState(p.checkpointFor(i)); err != nil {
		return Result{}, err
	}
	m.OnCycle = nil
	if p.detections == 0 && !p.haltDiverged[f.Logical] {
		fire := p.fireIter[i]
		checks := 0
		m.OnCycle = func(cycle uint64) error {
			if cycle%checkpointInterval != 0 || cycle <= fire || checks >= convergenceChecks {
				return nil
			}
			gsnap := p.snaps[cycle]
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
	m.OnCycle = nil
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
	// Record the cycle at which the fault fires by sampling around the arm
	// closure: wrap again to capture the cycle.
	var fireCycle uint64
	ctx := m.Leads[f.Logical]
	if f.Target == TrailingCopy {
		ctx = m.Trails[f.Logical]
	}
	inner := ctx.Arch.Corrupt
	armed := false
	ctx.Arch.Corrupt = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
		nv := inner(point, seq, pc, v)
		if !armed && nv != v {
			armed = true
			fireCycle = m.Cores[0].Cycle()
		}
		return nv
	}
	if _, err := m.Run(); err != nil {
		// A deadlock after divergence can only follow an unrecorded
		// divergence; treat any watchdog error with detections as
		// detected, otherwise propagate.
		if len(m.Detections()) == 0 {
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
	case !fired():
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
