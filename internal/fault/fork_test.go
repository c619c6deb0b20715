package fault

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
)

// CampaignLegacy runs the campaign with the original per-trial engine:
// every trial builds a fresh machine and re-simulates warmup plus the
// entire fault-free prefix before its injection point. It is the
// equivalence oracle for the fork-on-fault engine: the two must produce
// byte-identical summaries.
func CampaignLegacy(spec sim.Spec, n int, seed uint64, opts CampaignOptions) (*CampaignSummary, error) {
	if !CampaignMode(spec.Mode) {
		return nil, fmt.Errorf("fault: campaign requires an RMT mode, got %v", spec.Mode)
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
			if opts.Cancel != nil {
				if err := opts.Cancel(); err != nil {
					return Result{}, err
				}
			}
			res, err := runOneWith(spec, f, golden)
			if err != nil {
				return Result{}, fmt.Errorf("fault: trial %d (%v): %w", i, f, err)
			}
			return res, nil
		}
	}
	results, rep, err := runner.Run(jobs, runner.Options{Parallelism: opts.Parallelism, Progress: opts.Progress})
	if opts.OnReport != nil {
		opts.OnReport(rep)
	}
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
			legacy, err := CampaignLegacy(tc.spec, tc.n, tc.seed, CampaignOptions{Parallelism: 1})
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			for _, workers := range []int{1, 4} {
				spec := tc.spec
				fork, err := Campaign(spec, tc.n, tc.seed, CampaignOptions{Parallelism: workers})
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
	for name, run := range map[string]func(sim.Spec, int, uint64, CampaignOptions) (*CampaignSummary, error){
		"fork":   Campaign,
		"legacy": CampaignLegacy,
	} {
		_, err := run(faultSpec(sim.ModeSRT, "compress"), 4, 1,
			CampaignOptions{Parallelism: 1, Cancel: func() error { return boom }})
		if !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want wrapped cancel error", name, err)
		}
	}
}
