// Package fault provides the fault model and injection campaigns used to
// demonstrate RMT's detection capability: single-bit transient flips
// injected into one copy of a redundant pair (a cosmic-ray strike on a
// latch). Permanent faults, the ones preferential space redundancy guards
// against, are not injected; Figure 7 measures only a pair's exposure to
// them.
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
// Trials run on the fork-on-fault engine, as n+1 runner jobs. Job 0 is the
// golden pass: it simulates the fault-free run once, publishes a state
// checkpoint every checkpointInterval cycles, and queues each trial, in
// fire order, as soon as its fault fires; trials whose fault never fires
// are queued when the pass ends. Jobs 1..n each take the next queued
// trial, so replays run beside the golden pass. An unfired trial is
// classified from golden end state. A fired trial starts from the golden
// state at its fire cycle: its machine restores the latest golden state it
// holds at or before the fire (the state it saved at its previous trial's
// fire, or the coarse checkpoint), steps fault-free to the fire, saves that
// state, arms the fault and replays only the suffix. Machines are recycled
// across replays, and the golden machine joins them when its pass ends. A
// replay whose state becomes byte-identical to a golden checkpoint ends
// early; what only the end of the golden pass tells (the end cycle, the
// adaptive reference digest, the golden run's health) is applied to the
// results once every job is done. The fault plan is fixed before the first
// job starts and results are assembled by trial index, so the summary —
// including per-trial outcome order — is identical at any parallelism, and
// byte-identical to building and simulating every trial from scratch.
//
// opts is the campaign's run policy, handed to runner.Run with the jobs,
// so Progress and OnReport count the golden pass and the trials, and the
// report's Busy includes the golden pass. Cancel is polled before each job
// and at each checkpoint boundary of the golden pass; a Cancel error or a
// failed job ends the campaign and wakes every job waiting on the golden
// pass with that error.
func Campaign(spec sim.Spec, n int, seed uint64, opts runner.Options) (*CampaignSummary, error) {
	return runCampaign(spec, n, seed, opts, hooks{})
}

// hooks are probes the package's tests hang into the engine; Campaign sets
// none.
type hooks struct {
	// armed runs as a fired replay arms its fault, with the trial index
	// and the machine.
	armed func(trial int, m *sim.Machine)
	// waiting runs, under the campaign's lock, each time a trial job
	// blocks on the golden pass.
	waiting func()
	// distrustGolden treats the golden run as unhealthy for every pair,
	// whatever its end state: every trial that took a convergence exit
	// is replayed again without checks.
	distrustGolden bool
}

// runCampaign is Campaign with test hooks.
func runCampaign(spec sim.Spec, n int, seed uint64, opts runner.Options, h hooks) (*CampaignSummary, error) {
	if !spec.Mode.Paired() {
		return nil, fmt.Errorf("fault: campaign requires a paired mode (a leading/trailing pair to strike), got %v", spec.Mode)
	}
	if n < 0 {
		return nil, fmt.Errorf("fault: campaign trial count %d is negative", n)
	}
	spec.StopOnDetection = true
	c := newForkCampaign(spec, Plan(spec, n, seed), h)
	if cancel := opts.Cancel; cancel != nil {
		c.cancel = func() error {
			if err := cancel(); err != nil {
				c.fail(err)
				return err
			}
			return nil
		}
	}
	opts.Cancel = c.cancel
	jobs := make([]func() (replayed, error), n+1)
	jobs[0] = func() (replayed, error) {
		if err := c.runGolden(); err != nil {
			return replayed{}, c.fail(fmt.Errorf("fault: golden run: %w", err))
		}
		return replayed{}, nil
	}
	for k := range n {
		jobs[k+1] = func() (replayed, error) {
			r, err := c.trial(k)
			if err != nil {
				return replayed{}, c.fail(err)
			}
			return r, nil
		}
	}
	out, _, err := runner.Run(jobs, opts)
	if err != nil {
		return nil, err
	}
	results := make([]Result, n)
	for k, i := range c.queue {
		if results[i], err = c.settle(i, out[k+1]); err != nil {
			return nil, err
		}
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
// iterations. A replay that holds no later golden state restores the last
// checkpoint at or before its fire iteration and steps from there; an
// armed fault is silent until its exact injection point, so the stepped
// prefix re-executes the golden run bit-for-bit. The interval also sets
// where convergence checks compare a replay with the golden run.
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

// forkCampaign is one fork-on-fault campaign in flight: the fault plan,
// what the golden pass has published so far, and the machines idle
// between replays. The golden pass is the only writer of fire records and
// checkpoints; trial jobs read them under mu, and wait on cond for what
// the pass has not reached yet. The golden pass never waits on a trial.
type forkCampaign struct {
	spec   sim.Spec
	faults []Transient
	// cancel is the run's Cancel poll; a failing poll fails the campaign.
	cancel func() error
	hooks  hooks

	mu sync.Mutex
	// cond is broadcast when the golden pass publishes, ends, or the
	// campaign fails.
	cond sync.Cond

	// queue lists trials in dispatch order: the fired ones in fire order,
	// then, once the pass ends, the unfired ones. Trial i's fire record
	// (fired, fireIter, lists) is written before i is queued.
	queue    []int
	fired    []bool
	fireIter []uint64             // machine iteration (Machine.Cycles) at fire
	lists    []sim.CheckpointList // SRTR: the run's checkpoint list at fire
	// snaps maps a checkpoint iteration to the golden snapshot there, and
	// reached is the last boundary the pass has published: every
	// checkpoint it keeps at or below reached is in snaps.
	snaps   map[uint64][]byte
	reached uint64
	ended   bool
	end     goldenEnd // valid once ended
	err     error     // the campaign's first failure

	idle []*replayMachine
}

// goldenEnd is what only the end of the golden pass tells.
type goldenEnd struct {
	cycle        uint64 // Cores[0].Cycle() at golden completion
	detections   int    // golden detections (0 in a healthy machine)
	haltDiverged []bool // per logical: lead/trail halt states diverged
	// digest, when non-nil (adaptive only), is the fault-free run's final
	// architectural digest, the reference undetected trials are classified
	// against (Masked vs UnprotectedSDC).
	digest *[32]byte
}

// replayMachine is a machine the campaign recycles across replays. saved
// holds the golden state at iteration savedAt, the fire of the last trial
// it ran (empty before its first), for a later replay to start from;
// scratch is the buffer its convergence checks encode into. Both grow to a
// snapshot's size once and are reused.
type replayMachine struct {
	*sim.Machine
	saved   []byte
	savedAt uint64
	scratch []byte
}

// replayed is one trial job's product: the result as far as the trial can
// tell, and what the end of the golden pass must still settle.
type replayed struct {
	Result
	// converged marks a trial that ended at a convergence exit: its Cycles
	// are the golden end cycle, and the exit holds only if the golden run
	// ends healthy.
	converged bool
	// digest, for an undetected adaptive trial, is its final architectural
	// digest, which decides Masked vs UnprotectedSDC against the golden
	// run's.
	digest *[32]byte
}

func newForkCampaign(spec sim.Spec, faults []Transient, h hooks) *forkCampaign {
	c := &forkCampaign{
		spec:     spec,
		faults:   faults,
		cancel:   func() error { return nil },
		hooks:    h,
		fired:    make([]bool, len(faults)),
		fireIter: make([]uint64, len(faults)),
		lists:    make([]sim.CheckpointList, len(faults)),
		snaps:    make(map[uint64][]byte),
	}
	c.cond.L = &c.mu
	return c
}

// fail records err as the campaign's failure unless one is recorded
// already, wakes every waiting job, and returns the recorded failure:
// every job a failure stops returns the same error.
func (c *forkCampaign) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
		c.cond.Broadcast()
	}
	return c.err
}

// wait blocks on cond; the caller holds mu.
func (c *forkCampaign) wait() {
	if c.hooks.waiting != nil {
		c.hooks.waiting()
	}
	c.cond.Wait()
}

// trial is the job at queue position k: it waits for the golden pass to
// queue its trial, then classifies it (unfired) or replays it on an idle
// machine, which it returns to the idle list after a successful replay.
func (c *forkCampaign) trial(k int) (replayed, error) {
	c.mu.Lock()
	for c.err == nil && len(c.queue) <= k {
		c.wait()
	}
	i, err := 0, c.err
	if err == nil {
		i = c.queue[k]
	}
	c.mu.Unlock()
	if err != nil {
		return replayed{}, err
	}
	if !c.fired[i] {
		return replayed{Result: c.classifyUnfired(c.faults[i])}, nil
	}
	return c.replayIdle(i, true)
}

// replayIdle replays fired trial i on a machine from the idle list, and
// returns the machine there after a successful replay.
func (c *forkCampaign) replayIdle(i int, checks bool) (replayed, error) {
	m, err := c.take(c.fireIter[i])
	var r replayed
	if err == nil {
		r, err = c.replay(m, i, checks)
	}
	if err != nil {
		return replayed{}, fmt.Errorf("fault: trial %d (%v): %w", i, c.faults[i], err)
	}
	c.put(m)
	return r, nil
}

// settle applies to trial i's job product what the end of the golden pass
// tells: a convergence exit holds only for a healthy golden run, otherwise
// the trial is replayed again without checks; a converged trial ran the
// golden suffix to the golden end cycle; an undetected adaptive trial is
// masked only if its final state matches the golden run's.
func (c *forkCampaign) settle(i int, r replayed) (Result, error) {
	if r.converged && !c.trusted(c.faults[i].Logical) {
		if err := c.cancel(); err != nil {
			return Result{}, err
		}
		var err error
		if r, err = c.replayIdle(i, false); err != nil {
			return Result{}, err
		}
	}
	if r.converged {
		r.Cycles = c.end.cycle
	}
	if r.digest != nil && *r.digest != *c.end.digest {
		r.Outcome = UnprotectedSDC
	}
	return r.Result, nil
}

// trusted reports whether the golden run ended healthy for the pair a
// fault strikes: no detection, and its two copies agree on having halted.
// Only then does a convergence exit mean the trial is masked: a trial that
// rejoins an unhealthy golden run inherits its detection or divergence.
func (c *forkCampaign) trusted(logical int) bool {
	return c.end.detections == 0 && !c.end.haltDiverged[logical] && !c.hooks.distrustGolden
}

// classifyUnfired reproduces runArmed's classification for a trial whose
// fault never fires: such a trial's machine executes the golden run
// bit-for-bit (an armed-but-silent fault and oracle tolerance change
// nothing on a fault-free path), so its outcome is a function of golden end
// state alone.
func (c *forkCampaign) classifyUnfired(f Transient) Result {
	res := Result{Fault: f, Cycles: c.end.cycle}
	switch {
	case c.end.detections > 0 || c.end.haltDiverged[f.Logical]:
		res.Outcome = Detected
		res.DetectionCycles = c.end.cycle // fireCycle 0, end > 0
	default:
		res.Outcome = NotFired
	}
	return res
}

// runGolden is the golden pass: the fault-free run, simulated once. A
// read-only observer per victim context records, without perturbing, the
// machine iteration where each planned fault first fires, with the SRTR
// checkpoint list in force there, and queues the trial. At every
// checkpointInterval boundary the pass polls cancel, stops if the campaign
// has failed, and publishes a state checkpoint with the cycle it has
// reached. The observers return every value unchanged and snapshot
// encoding only reads state, so the pass executes the identical fault-free
// run. Until the first fault fires only the newest checkpoint is kept (no
// replay can start below the earliest fire's); once every fault has fired,
// checkpoints past the last fire's convergence checks are not taken. When
// the run ends, the pass publishes its end state, queues the unfired
// trials, and hands its machine to the idle list.
func (c *forkCampaign) runGolden() error {
	g, err := sim.Build(c.spec)
	if err != nil {
		return err
	}
	srtr := c.spec.Mode == sim.ModeSRTR
	// firedCount and maxFire track fire discovery on this goroutine, so
	// checkpointing can stop once no future checkpoint could be replayed
	// from or converged against.
	firedCount, maxFire := 0, uint64(0)
	// Group fault indices by victim context in deterministic (logical,
	// target) order and install one read-only observer per victim. The
	// observer mirrors Arm's trigger condition per fault — first call with
	// seq >= AtSeq at the matching point.
	for logical := 0; logical < len(g.Leads); logical++ {
		for _, target := range []Copy{LeadingCopy, TrailingCopy} {
			var mine []int
			for i, f := range c.faults {
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
				return fmt.Errorf("no %v copy for logical thread %d (mode %v)",
					target, logical, c.spec.Mode)
			}
			ctx.Arch.Corrupt = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
				for _, i := range mine {
					if c.fired[i] || seq < c.faults[i].AtSeq || point != c.faults[i].Point {
						continue
					}
					var list sim.CheckpointList
					if srtr {
						list = g.Checkpoints()
					}
					firedCount++
					maxFire = max(maxFire, g.Cycles)
					c.mu.Lock()
					c.fired[i], c.fireIter[i], c.lists[i] = true, g.Cycles, list
					c.queue = append(c.queue, i)
					c.cond.Broadcast()
					c.mu.Unlock()
				}
				return v
			}
		}
	}
	var newest []byte // the last checkpoint taken
	g.OnCycle = func(cycle uint64) error {
		if cycle%checkpointInterval != 0 {
			return nil
		}
		if err := c.cancel(); err != nil {
			return err
		}
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err != nil {
			return err
		}
		// Past the last fire's convergence checks nothing can replay from
		// or compare against a checkpoint.
		take := firedCount < len(c.faults) ||
			cycle <= maxFire-maxFire%checkpointInterval+convergenceChecks*checkpointInterval
		if take {
			if firedCount == 0 && newest != nil {
				// Nothing can replay from the checkpoint this one
				// replaces, so it lends its buffer.
				newest = g.AppendSnapshot(newest[:0])
			} else {
				if newest, err = g.Snapshot(); err != nil {
					return err
				}
			}
		}
		c.mu.Lock()
		if take {
			if firedCount == 0 {
				clear(c.snaps)
			}
			c.snaps[cycle] = newest
		}
		c.reached = cycle
		c.cond.Broadcast()
		c.mu.Unlock()
		return nil
	}
	if _, err := g.Run(); err != nil {
		return err
	}
	end := goldenEnd{
		cycle:        g.Cores[0].Cycle(),
		detections:   len(g.Detections()),
		haltDiverged: make([]bool, len(g.Leads)),
	}
	for i := range g.Leads {
		if tr := g.Trails[i]; tr != nil {
			end.haltDiverged[i] = g.Leads[i].Arch.Halted != tr.Arch.Halted
		}
	}
	if c.spec.Mode == sim.ModeAdaptive {
		d := g.ArchDigest()
		end.digest = &d
	}
	// SRTR replays resume the golden run's checkpoint lists and end at a
	// rollback to a pre-fire checkpoint as golden state: both hold only for
	// a fault-free run that itself never needed a rollback.
	if srtr && (end.detections > 0 || slices.Contains(end.haltDiverged, true)) {
		return fmt.Errorf("SRTR fault-free run ends with %d standing detections (halt divergence: %v): its checkpoints cannot seed replays",
			end.detections, end.haltDiverged)
	}
	// The golden machine's pass is done; strip its hooks and let a replay
	// recycle it instead of building from scratch.
	g.OnCycle = nil
	clearCorruptHooks(g)
	c.mu.Lock()
	c.ended, c.end = true, end
	for i := range c.faults {
		if !c.fired[i] {
			c.queue = append(c.queue, i)
		}
	}
	c.idle = append(c.idle, &replayMachine{Machine: g})
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// goldenAt returns the golden checkpoint at boundary cycle, once the pass
// has reached it or ended; nil if the pass keeps none there. It fails with
// the campaign's failure.
func (c *forkCampaign) goldenAt(cycle uint64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && !c.ended && c.reached < cycle {
		c.wait()
	}
	return c.snaps[cycle], c.err
}

// take hands a replay firing at iteration fire the idle machine whose
// saved golden state is the latest at or before fire, else any idle
// machine, else a fresh build.
func (c *forkCampaign) take(fire uint64) (*replayMachine, error) {
	// reach ranks a machine's saved state as a starting point: 0 when it
	// has none usable.
	reach := func(m *replayMachine) uint64 {
		if len(m.saved) == 0 || m.savedAt > fire {
			return 0
		}
		return m.savedAt + 1
	}
	c.mu.Lock()
	best := -1
	for j, m := range c.idle {
		if best < 0 || reach(m) > reach(c.idle[best]) {
			best = j
		}
	}
	if best >= 0 {
		m := c.idle[best]
		c.idle[best] = c.idle[len(c.idle)-1]
		c.idle = c.idle[:len(c.idle)-1]
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	m, err := sim.Build(c.spec)
	if err != nil {
		return nil, err
	}
	return &replayMachine{Machine: m}, nil
}

// put returns a machine to the idle list.
func (c *forkCampaign) put(m *replayMachine) {
	c.mu.Lock()
	c.idle = append(c.idle, m)
	c.mu.Unlock()
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

// replay runs fired trial i on m, from the golden state at the trial's
// fire iteration. It restores m's own saved golden state if that is at or
// after the fire's coarse checkpoint, else the checkpoint, and steps the
// machine fault-free to the fire; RestoreState replaces all mutable
// simulated state, so whatever m ran before does not matter. It saves the
// state there for m's next replay, resumes (SRTR) the checkpoint list the
// golden run held at the fire, so the replay validates and rolls back
// exactly as the unbroken run does, arms the fault, and runs the rest.
//
// With checks, the replay also watches for convergence: at the first
// checkpoint boundaries past the fire, its state is compared bytewise with
// the golden checkpoint at the same cycle, waiting for the golden pass to
// get there. A match proves the fault's effects have died out entirely —
// every later cycle of the trial IS the golden run, if the golden run is
// healthy — so the trial ends at once, masked. An SRTR rollback to a
// checkpoint taken at or before the fire ends the trial the same way
// without restoring it: that checkpoint holds the golden run's state, and
// the transient has fired. Either way the product is marked converged for
// settle.
func (c *forkCampaign) replay(m *replayMachine, i int, checks bool) (replayed, error) {
	f, fire := c.faults[i], c.fireIter[i]
	clearCorruptHooks(m.Machine)
	m.OnCycle, m.OnRollback = nil, nil
	from := m.saved
	if base := fire - fire%checkpointInterval; len(from) == 0 || m.savedAt < base || m.savedAt > fire {
		c.mu.Lock()
		from = c.snaps[base]
		c.mu.Unlock()
		if from == nil {
			return replayed{}, fmt.Errorf("golden run has no checkpoint %d for fire cycle %d", base, fire)
		}
	}
	if err := m.RestoreState(from); err != nil {
		return replayed{}, err
	}
	// The pipeline's Run, not the machine's: an SRTR run would capture an
	// entry checkpoint, and a fault-free step changes no state the SRTR
	// loop would.
	if _, err := m.Machine.Machine.Run(fire); err != nil {
		return replayed{}, err
	}
	m.saved, m.savedAt = m.encode(m.saved), fire
	if c.spec.Mode == sim.ModeSRTR {
		m.ResumeCheckpoints(c.lists[i])
		m.OnRollback = func(target uint64) error {
			if target <= fire {
				return errConverged
			}
			return nil
		}
	}
	if checks {
		n := 0
		m.OnCycle = func(cycle uint64) error {
			if cycle%checkpointInterval != 0 || cycle <= fire || n >= convergenceChecks || len(m.Detections()) > 0 {
				return nil
			}
			gsnap, err := c.goldenAt(cycle)
			if gsnap == nil || err != nil {
				return err
			}
			n++
			if m.convergedWithGolden(f, gsnap) {
				return errConverged
			}
			return nil
		}
	}
	if c.hooks.armed != nil {
		c.hooks.armed(i, m.Machine)
	}
	res, err := runArmed(m.Machine, f, nil)
	m.OnCycle, m.OnRollback = nil, nil
	if errors.Is(err, errConverged) {
		// Byte-identical to the golden run from here on: the rest of the
		// trial is the golden suffix. If the machine rolled back to get
		// there, the convergence is the proof of recovery.
		r := replayed{Result: Result{Fault: f, Outcome: Masked}, converged: true}
		if m.Recoveries > 0 {
			r.Outcome = Recovered
			r.Recoveries = m.Recoveries
			r.RecoveryCycles = m.RecoveryCycles
		}
		return r, nil
	}
	if err != nil {
		return replayed{}, err
	}
	r := replayed{Result: res}
	if c.spec.Mode == sim.ModeAdaptive && res.Outcome == Masked {
		d := m.ArchDigest()
		r.digest = &d
	}
	return r, nil
}

// encode writes the machine's snapshot into buf, reusing its storage. A
// first encoding sizes a fresh buffer from the machine's last snapshot,
// instead of growing one into it by doubling.
func (m *replayMachine) encode(buf []byte) []byte {
	if buf == nil {
		buf, _ = m.Snapshot() // Snapshot's error is always nil
		return buf
	}
	return m.AppendSnapshot(buf[:0])
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
	m.scratch = m.encode(m.scratch)
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
