package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"

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
// parallelism.
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
	cases := []struct {
		name string
		spec sim.Spec
		n    int
		seed uint64
	}{
		{"srt one program", small(sim.ModeSRT, "compress"), 6, 0xA11CE},
		{"srt two programs", small(sim.ModeSRT, "gcc", "swim"), 6, 42},
		{"crt two programs", small(sim.ModeCRT, "gcc", "swim"), 6, 0xBEEF},
		{"srtr one program", small(sim.ModeSRTR, "compress"), 6, 0xA11CE},
		{"srtr two programs", small(sim.ModeSRTR, "gcc", "swim"), 6, 42},
		{"adaptive one program", adaptive("compress"), 6, 0xA11CE},
		{"adaptive two programs", adaptive("gcc", "swim"), 6, 42},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legacy, err := CampaignLegacy(tc.spec, tc.n, tc.seed, runner.Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			for _, workers := range []int{1, 4} {
				spec := tc.spec
				fork, err := Campaign(spec, tc.n, tc.seed, runner.Options{Parallelism: workers})
				if err != nil {
					t.Fatalf("fork workers=%d: %v", workers, err)
				}
				if fork.Runs != legacy.Runs || fork.Detected != legacy.Detected ||
					fork.Masked != legacy.Masked || fork.NotFired != legacy.NotFired ||
					fork.Recovered != legacy.Recovered ||
					fork.UnprotectedSDC != legacy.UnprotectedSDC ||
					fork.MeanDetectionCycles != legacy.MeanDetectionCycles ||
					fork.MeanRecoveryCycles != legacy.MeanRecoveryCycles ||
					fork.TotalCycles != legacy.TotalCycles {
					t.Fatalf("workers=%d summary differs:\nfork:   %+v\nlegacy: %+v", workers, fork, legacy)
				}
				for i := range fork.Results {
					if fork.Results[i] != legacy.Results[i] {
						t.Fatalf("workers=%d trial %d: fork %+v, legacy %+v",
							workers, i, fork.Results[i], legacy.Results[i])
					}
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
// pass, not only around it, so a campaign cancelled after it starts stops
// there: its replay pool never runs and OnReport never fires.
func TestCampaignCancelStopsGoldenPass(t *testing.T) {
	boom := errors.New("canceled")
	polls := 0
	_, err := Campaign(faultSpec(sim.ModeSRT, "compress"), 20, 0xfeedface, runner.Options{
		Parallelism: 1,
		Cancel: func() error {
			if polls++; polls >= 2 {
				return boom
			}
			return nil
		},
		OnReport: func(runner.Report) { t.Error("OnReport fired: the replay pool ran after cancellation") },
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped cancel error", err)
	}
}

// TestCampaignProgressCountsTrials: Progress counts trials, unfired ones
// included, not the replay pool's chunk jobs, and ends at the trial count.
func TestCampaignProgressCountsTrials(t *testing.T) {
	var mu sync.Mutex
	last := 0
	n := 20
	_, err := Campaign(faultSpec(sim.ModeSRT, "compress"), n, 0xfeedface, runner.Options{
		Parallelism: 2,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done <= last || total != n {
				t.Errorf("progress %d/%d after %d", done, total, last)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != n {
		t.Errorf("final progress = %d, want %d", last, n)
	}
}
