package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/progen"
	"repro/internal/runner"
	"repro/internal/sim"
)

// CampaignLegacy runs the campaign with the original per-trial engine:
// every trial builds a fresh machine and re-simulates warmup plus the
// entire fault-free prefix before its injection point. It is the
// equivalence oracle for the fork-on-fault engine: the two must produce
// byte-identical summaries.
func CampaignLegacy(spec sim.Spec, n int, seed uint64, opts runner.Options) (*CampaignSummary, error) {
	if !spec.Mode.Paired() {
		return nil, fmt.Errorf("fault: campaign requires a paired mode, got %v", spec.Mode)
	}
	spec.StopOnDetection = true
	golden, err := goldenDigest(spec)
	if err != nil {
		return nil, fmt.Errorf("fault: golden run: %w", err)
	}
	faults := Plan(spec, n, seed)
	jobs := make([]func() (Result, error), n)
	for i := range faults {
		i, f := i, faults[i]
		jobs[i] = func() (Result, error) {
			res, err := runOneWith(spec, f, golden)
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

// TestForkMatchesLegacy is the fork-on-fault engine's ground-truth check:
// over the same table the sharding-invariance test uses, the snapshot/replay
// engine must produce a summary byte-identical to the legacy
// build-everything-per-trial engine — every per-trial Result (outcome,
// detection latency, end cycle), every aggregate, at more than one
// parallelism. At 1 worker the golden job runs to completion before any
// replay; at 2, one replay worker runs beside it; at 4, several do.
func TestForkMatchesLegacy(t *testing.T) {
	small := func(mode sim.Mode, progs ...string) sim.Spec {
		s := faultSpec(mode, progs...)
		s.Budget, s.Warmup = 3000, 1000
		return s
	}
	adaptive := func(progs ...string) sim.Spec {
		s := small(sim.ModeAdaptive, progs...)
		s.AdaptiveThreshold = 0.5
		return s
	}
	// SRTR replays resume the golden run's checkpoint list, which must
	// hold the from-scratch run's rollback targets at any checkpoint
	// interval, including ones off the engine's 1024-cycle snapshot grid.
	srtr := func(interval uint64, progs ...string) sim.Spec {
		s := small(sim.ModeSRTR, progs...)
		s.CheckpointInterval = interval
		return s
	}
	gen := progen.Name(progen.CorpusSeeds(0xC0FFEE, 1)[0])
	cases := []struct {
		name string
		spec sim.Spec
		n    int
		seed uint64
	}{
		{"srt one program", small(sim.ModeSRT, "compress"), 6, 0xA11CE},
		{"srt two programs", small(sim.ModeSRT, "gcc", "swim"), 6, 42},
		{"srt generated kernel", small(sim.ModeSRT, gen), 12, 0xBEEF},
		{"crt one program", small(sim.ModeCRT, "li"), 12, 0xA11CE},
		{"crt two programs", small(sim.ModeCRT, "gcc", "swim"), 6, 0xBEEF},
		{"srtr one program", small(sim.ModeSRTR, "compress"), 6, 0xA11CE},
		{"srtr two programs", small(sim.ModeSRTR, "gcc", "swim"), 6, 42},
		{"srtr interval 256", srtr(256, "compress"), 12, 0xA11CE},
		{"srtr interval 1536", srtr(1536, "gcc"), 12, 42},
		{"srtr interval 2048 two programs", srtr(2048, "gcc", "swim"), 12, 0xA11CE},
		{"srtr generated kernel", srtr(0, gen), 12, 0xBEEF},
		{"adaptive one program", adaptive("compress"), 6, 0xA11CE},
		{"adaptive two programs", adaptive("gcc", "swim"), 6, 42},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legacy, err := CampaignLegacy(tc.spec, tc.n, tc.seed, runner.Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			for _, workers := range []int{1, 2, 4} {
				spec := tc.spec
				fork, err := Campaign(spec, tc.n, tc.seed, runner.Options{Parallelism: workers})
				if err != nil {
					t.Fatalf("fork workers=%d: %v", workers, err)
				}
				sameSummary(t, fmt.Sprintf("workers=%d", workers), fork, legacy)
			}
		})
	}
}

// sameSummary fails the test unless the fork engine's summary equals the
// legacy engine's in every aggregate and every per-trial result.
func sameSummary(t *testing.T, what string, fork, legacy *CampaignSummary) {
	t.Helper()
	if fork.Runs != legacy.Runs || fork.Detected != legacy.Detected ||
		fork.Masked != legacy.Masked || fork.NotFired != legacy.NotFired ||
		fork.Recovered != legacy.Recovered ||
		fork.UnprotectedSDC != legacy.UnprotectedSDC ||
		fork.MeanDetectionCycles != legacy.MeanDetectionCycles ||
		fork.MeanRecoveryCycles != legacy.MeanRecoveryCycles ||
		fork.TotalCycles != legacy.TotalCycles {
		t.Fatalf("%s summary differs:\nfork:   %+v\nlegacy: %+v", what, fork, legacy)
	}
	for i := range fork.Results {
		if fork.Results[i] != legacy.Results[i] {
			t.Fatalf("%s trial %d: fork %+v, legacy %+v", what, i, fork.Results[i], legacy.Results[i])
		}
	}
}

// TestReplayArmsAtFireCycle: every fired replay arms its fault on a
// machine in the golden state at the fault's fire cycle, not at the
// checkpoint before it, whichever machine it drew and at any parallelism.
func TestReplayArmsAtFireCycle(t *testing.T) {
	spec := faultSpec(sim.ModeSRT, "gcc", "swim")
	spec.Budget, spec.Warmup = 3000, 1000
	spec.StopOnDetection = true
	const n, seed = 24, 0xA11CE
	g := newForkCampaign(spec, Plan(spec, n, seed), hooks{})
	if err := g.runGolden(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		var mu sync.Mutex
		armed := map[int]uint64{}
		_, err := runCampaign(spec, n, seed, runner.Options{Parallelism: workers}, hooks{
			armed: func(trial int, m *sim.Machine) {
				mu.Lock()
				defer mu.Unlock()
				armed[trial] = m.Cycles
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		fired := 0
		for i := range n {
			at, ok := armed[i]
			if !g.fired[i] {
				if ok {
					t.Errorf("workers=%d: unfired trial %d was replayed", workers, i)
				}
				continue
			}
			fired++
			if !ok || at != g.fireIter[i] {
				t.Errorf("workers=%d trial %d: armed at cycle %d (replayed: %v), fire cycle %d",
					workers, i, at, ok, g.fireIter[i])
			}
		}
		if fired == 0 {
			t.Fatal("no fault fired")
		}
	}
}

// TestForkUnhealthyGoldenMatchesLegacy forces the engine to treat the
// golden run as unhealthy, as it must when the fault-free run ends with a
// detection or a halt divergence: every convergence exit then rests on
// nothing, so each trial that took one is replayed again without checks,
// and the results must still be the legacy engine's.
func TestForkUnhealthyGoldenMatchesLegacy(t *testing.T) {
	small := func(mode sim.Mode, progs ...string) sim.Spec {
		s := faultSpec(mode, progs...)
		s.Budget, s.Warmup = 3000, 1000
		return s
	}
	adaptive := small(sim.ModeAdaptive, "compress")
	adaptive.AdaptiveThreshold = 0.5
	for _, tc := range []struct {
		name string
		spec sim.Spec
	}{
		{"srt", small(sim.ModeSRT, "compress")},
		{"crt", small(sim.ModeCRT, "gcc", "swim")},
		{"adaptive", adaptive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, seed = 12, 0xA11CE
			legacy, err := CampaignLegacy(tc.spec, n, seed, runner.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				var mu sync.Mutex
				arms := 0
				fork, err := runCampaign(tc.spec, n, seed, runner.Options{Parallelism: workers}, hooks{
					distrustGolden: true,
					armed: func(int, *sim.Machine) {
						mu.Lock()
						defer mu.Unlock()
						arms++
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				sameSummary(t, fmt.Sprintf("workers=%d", workers), fork, legacy)
				fired := n - fork.NotFired
				if arms <= fired {
					t.Errorf("workers=%d: %d arms for %d fired trials: no convergence exit was replayed again", workers, arms, fired)
				}
			}
		})
	}
}

// TestCampaignCancel: a Cancel callback returning an error aborts the
// campaign with that error (this is the context plumbing rmt.Campaign uses).
func TestCampaignCancel(t *testing.T) {
	boom := errors.New("canceled")
	for name, run := range map[string]func(sim.Spec, int, uint64, runner.Options) (*CampaignSummary, error){
		"fork":   Campaign,
		"legacy": CampaignLegacy,
	} {
		_, err := run(faultSpec(sim.ModeSRT, "compress"), 4, 1,
			runner.Options{Parallelism: 1, Cancel: func() error { return boom }})
		if !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want wrapped cancel error", name, err)
		}
	}
}

// TestCampaignCancelStopsGoldenPass: Cancel is polled inside the golden
// pass, not only before each job, so a campaign cancelled after its golden
// job starts stops there: at parallelism 1 no replay job ever starts, and
// the one report counts only the golden job as run.
func TestCampaignCancelStopsGoldenPass(t *testing.T) {
	boom := errors.New("canceled")
	polls := 0
	var reports []runner.Report
	_, err := Campaign(faultSpec(sim.ModeSRT, "compress"), 20, 0xfeedface, runner.Options{
		Parallelism: 1,
		Cancel: func() error {
			if polls++; polls >= 2 {
				return boom
			}
			return nil
		},
		OnReport: func(r runner.Report) { reports = append(reports, r) },
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped cancel error", err)
	}
	if len(reports) != 1 || reports[0].Ran != 1 {
		t.Errorf("reports = %+v, want one with ran = 1 (the golden job)", reports)
	}
}

// TestCampaignCancelWakesWaitingReplays: replay jobs that wait on the
// golden pass (for their trial, or for a checkpoint to compare against)
// must wake when the campaign is cancelled, and the campaign must return
// the cancel error instead of hanging.
func TestCampaignCancelWakesWaitingReplays(t *testing.T) {
	boom := errors.New("canceled")
	var waited atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := runCampaign(faultSpec(sim.ModeSRT, "compress"), 20, 0xfeedface, runner.Options{
			Parallelism: 4,
			Cancel: func() error {
				if waited.Load() {
					return boom
				}
				return nil
			},
		}, hooks{waiting: func() { waited.Store(true) }})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Errorf("err = %v, want the cancel error", err)
		}
		if !waited.Load() {
			t.Error("no replay job waited on the golden pass")
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("the cancelled campaign did not return: a waiting replay job was never woken")
	}
}

// TestCampaignProgressCountsTrials: the golden pass and every trial,
// unfired ones included, are one runner job each, so Progress ends at the
// trial count plus one and the one timing report counts them all as jobs
// that ran.
func TestCampaignProgressCountsTrials(t *testing.T) {
	var mu sync.Mutex
	last := 0
	var reports []runner.Report
	n := 20
	_, err := Campaign(faultSpec(sim.ModeSRT, "compress"), n, 0xfeedface, runner.Options{
		Parallelism: 2,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done <= last || total != n+1 {
				t.Errorf("progress %d/%d after %d", done, total, last)
			}
			last = done
		},
		OnReport: func(r runner.Report) { reports = append(reports, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != n+1 {
		t.Errorf("final progress = %d, want %d", last, n+1)
	}
	if len(reports) != 1 || reports[0].Jobs != n+1 || reports[0].Ran != n+1 {
		t.Errorf("reports = %+v, want one with jobs = ran = %d", reports, n+1)
	}
}

// rollbackTarget runs f from scratch on spec and returns the cycle the
// run's first SRTR rollback restored: the first cycle the machine steps
// that does not follow the one before it.
func rollbackTarget(t *testing.T, spec sim.Spec, f Transient) (target uint64, ok bool) {
	t.Helper()
	m, err := sim.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	last, seen := uint64(0), false
	m.OnCycle = func(cycle uint64) error {
		if seen && cycle <= last && !ok {
			target, ok = cycle, true
		}
		last, seen = cycle, true
		return nil
	}
	if _, err := runArmed(m, f, nil); err != nil {
		t.Fatal(err)
	}
	return target, ok
}

// TestForkSRTRCostModel pins where an SRTR campaign's replay cycles go.
// The golden pass keeps no snapshot below the earliest fire's checkpoint,
// and a trial whose rollback target was captured before its fault fired
// ends at that rollback, Recovered, without restoring the target: its
// machine's cycle never runs backwards.
func TestForkSRTRCostModel(t *testing.T) {
	spec := faultSpec(sim.ModeSRTR, "gcc")
	spec.StopOnDetection = true
	faults := Plan(spec, 24, 0xC0FFEE)
	c := newForkCampaign(spec, faults, hooks{})
	if err := c.runGolden(); err != nil {
		t.Fatal(err)
	}
	minBase := ^uint64(0)
	for i := range faults {
		if c.fired[i] {
			minBase = min(minBase, c.fireIter[i]-c.fireIter[i]%checkpointInterval)
		}
	}
	for cycle := range c.snaps {
		if cycle < minBase {
			t.Errorf("golden snapshot at cycle %d is kept below the earliest fire's checkpoint %d", cycle, minBase)
		}
	}

	checked := 0
	for i, f := range faults {
		if !c.fired[i] {
			continue
		}
		target, ok := rollbackTarget(t, spec, f)
		if !ok || target > c.fireIter[i] {
			continue
		}
		want, err := runOneWith(spec, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Replay on a machine whose core 0 notes a cycle that does not
		// follow the one before it.
		m, err := sim.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		stepped, rewound, last := false, false, uint64(0)
		m.Cores[0].Probe = func() {
			cyc := m.Cores[0].Cycle()
			if stepped && cyc <= last {
				rewound = true
			}
			stepped, last = true, cyc
		}
		r, err := c.replay(&replayMachine{Machine: m}, i, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.settle(i, r)
		if err != nil {
			t.Fatal(err)
		}
		if !stepped {
			t.Fatal("the replay never stepped the probed machine")
		}
		if got != want || got.Outcome != Recovered {
			t.Errorf("trial %d (%v): fork %+v, from scratch %+v, want equal and recovered", i, f, got, want)
		}
		if rewound {
			t.Errorf("trial %d (%v): the replay restored its rollback target (cycle %d), captured before the fire (cycle %d)",
				i, f, target, c.fireIter[i])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no trial rolled back to a checkpoint captured before its fire")
	}
	t.Logf("%d trials rolled back to a pre-fire checkpoint", checked)
}
