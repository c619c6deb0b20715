package fault

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vm"
)

func faultSpec(mode sim.Mode, progs ...string) sim.Spec {
	return sim.Spec{
		Mode:     mode,
		Programs: progs,
		Budget:   8000,
		Warmup:   2000,
		Config:   pipeline.DefaultConfig(),
		PSR:      true,
	}
}

// TestStoreDataFaultDetected injects a flip directly into a store's data:
// the comparator must always catch it.
func TestStoreDataFaultDetected(t *testing.T) {
	for _, target := range []Copy{LeadingCopy, TrailingCopy} {
		res, err := RunOne(faultSpec(sim.ModeSRT, "compress"), Transient{
			Target: target,
			AtSeq:  3000,
			Point:  vm.PointStoreData,
			Bit:    5,
		})
		if err != nil {
			t.Fatalf("%v: %v", target, err)
		}
		if res.Outcome != Detected {
			t.Errorf("%v copy store-data fault: outcome %v, want detected", target, res.Outcome)
		}
		if res.DetectionCycles == 0 {
			t.Errorf("%v copy: zero detection latency", target)
		}
	}
}

// TestStoreAddrFaultDetected flips a store address bit.
func TestStoreAddrFaultDetected(t *testing.T) {
	res, err := RunOne(faultSpec(sim.ModeSRT, "vortex"), Transient{
		Target: LeadingCopy,
		AtSeq:  3000,
		Point:  vm.PointStoreAddr,
		Bit:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Detected {
		t.Errorf("store-addr fault: outcome %v, want detected", res.Outcome)
	}
}

// TestLoadValueFaultPropagates corrupts a loaded value; the corruption flows
// through dependent computation into stores.
func TestLoadValueFaultPropagates(t *testing.T) {
	res, err := RunOne(faultSpec(sim.ModeSRT, "li"), Transient{
		Target: LeadingCopy,
		AtSeq:  3000,
		Point:  vm.PointLoadValue,
		Bit:    0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Detected {
		t.Errorf("load-value fault: outcome %v, want detected", res.Outcome)
	}
}

// TestHighBitResultFaultMayBeMasked: flipping a high bit of a result that is
// masked off (kernels AND down to small ranges) is often architecturally
// benign; the run must complete cleanly either way, never escape silently
// into a wrong store.
func TestResultFaultDetectedOrMasked(t *testing.T) {
	res, err := RunOne(faultSpec(sim.ModeSRT, "gcc"), Transient{
		Target: TrailingCopy,
		AtSeq:  2500,
		Point:  vm.PointResult,
		Bit:    62,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == NotFired {
		t.Fatal("fault never fired")
	}
}

// TestCRTDetectsFaults runs an injection on the cross-core organisation.
func TestCRTDetectsFaults(t *testing.T) {
	res, err := RunOne(faultSpec(sim.ModeCRT, "compress"), Transient{
		Target: LeadingCopy,
		AtSeq:  3000,
		Point:  vm.PointStoreData,
		Bit:    17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Detected {
		t.Errorf("CRT store-data fault: outcome %v, want detected", res.Outcome)
	}
}

// TestCampaignNoEscapes runs a small campaign: every fired fault must be
// detected or masked — never a silent escape (an SRT machine compares every
// store).
func TestCampaignNoEscapes(t *testing.T) {
	sum, err := Campaign(faultSpec(sim.ModeSRT, "compress"), 20, 0xfeedface, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 20 {
		t.Fatalf("runs = %d", sum.Runs)
	}
	if sum.Detected+sum.Masked+sum.NotFired != sum.Runs {
		t.Fatalf("classification doesn't partition: %+v", sum)
	}
	if sum.Detected == 0 {
		t.Error("campaign detected nothing; injection is broken")
	}
	if cov := sum.Coverage(); cov < 0.4 {
		t.Errorf("coverage %.2f implausibly low for output comparison", cov)
	}
}

// TestCampaignDeterministic: identical seeds give identical results.
func TestCampaignDeterministic(t *testing.T) {
	a, err := Campaign(faultSpec(sim.ModeSRT, "go"), 6, 42, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(faultSpec(sim.ModeSRT, "go"), 6, 42, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("trial %d differs: %+v vs %+v", i, a.Results[i], b.Results[i])
		}
	}
}

// TestFaultFreeRunHasNoDetections guards against false positives.
func TestFaultFreeRunHasNoDetections(t *testing.T) {
	m, err := sim.Build(faultSpec(sim.ModeSRT, "wave5"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Detections()); n != 0 {
		t.Fatalf("fault-free run produced %d detections", n)
	}
}

// TestCampaignRejectsNonRMTModes: injection needs a comparator, and a
// trial count from outside the program must be non-negative; either
// violation is an error, never a panic.
func TestCampaignRejectsNonRMTModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec sim.Spec
		n    int
	}{
		{"base mode", faultSpec(sim.ModeBase, "gcc"), 1},
		{"negative trial count", faultSpec(sim.ModeSRT, "gcc"), -1},
	} {
		if _, err := Campaign(tc.spec, tc.n, 1, runner.Options{Parallelism: 1}); err == nil {
			t.Errorf("%s: campaign should error", tc.name)
		}
	}
}

// TestCampaignParallelMatchesSerial: sharding trials across workers must
// not change a single outcome — the fault plan is drawn from the seed
// before any trial runs and results are keyed by trial index.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	spec := faultSpec(sim.ModeSRT, "compress")
	serial, err := Campaign(spec, 8, 0xBEEF, runner.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Campaign(spec, 8, 0xBEEF, runner.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Detected != parallel.Detected || serial.Masked != parallel.Masked ||
		serial.NotFired != parallel.NotFired || serial.Runs != parallel.Runs ||
		serial.MeanDetectionCycles != parallel.MeanDetectionCycles {
		t.Fatalf("summaries differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	for i := range serial.Results {
		if serial.Results[i] != parallel.Results[i] {
			t.Fatalf("trial %d differs: %+v vs %+v", i, serial.Results[i], parallel.Results[i])
		}
	}
}

// TestPlanDeterministic: the campaign's fault plan is a pure function of
// (spec sizing, n, seed).
func TestPlanDeterministic(t *testing.T) {
	spec := faultSpec(sim.ModeSRT, "gcc", "swim")
	a := Plan(spec, 10, 7)
	b := Plan(spec, 10, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan entry %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// A longer plan extends the shorter one: trial i does not depend on n.
	c := Plan(spec, 20, 7)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("plan entry %d changed when n grew: %v vs %v", i, a[i], c[i])
		}
	}
}

// TestPlanShardingInvariance: the fault plan is a pure function of
// (spec, n, seed), every campaign trial executes exactly its plan entry,
// and the whole summary — per-trial outcomes and Coverage — is invariant
// to Campaign's worker count. This is the sharding contract
// rmtd's /campaign endpoint leans on when it serves cached summaries
// computed at an arbitrary parallelism.
func TestPlanShardingInvariance(t *testing.T) {
	small := func(mode sim.Mode, progs ...string) sim.Spec {
		s := faultSpec(mode, progs...)
		s.Budget, s.Warmup = 3000, 1000
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := Plan(tc.spec, tc.n, tc.seed)
			replan := Plan(tc.spec, tc.n, tc.seed)
			for i := range plan {
				if plan[i] != replan[i] {
					t.Fatalf("plan entry %d not reproducible: %v vs %v", i, plan[i], replan[i])
				}
			}
			var ref *CampaignSummary
			for _, workers := range []int{1, 4, 8} {
				// StopOnDetection is forced inside Campaign; pass a
				// fresh copy so spec mutation cannot leak between runs.
				spec := tc.spec
				sum, err := Campaign(spec, tc.n, tc.seed, runner.Options{Parallelism: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for i, res := range sum.Results {
					if res.Fault != plan[i] {
						t.Fatalf("workers=%d trial %d ran fault %v, plan says %v", workers, i, res.Fault, plan[i])
					}
				}
				if ref == nil {
					ref = sum
					continue
				}
				if sum.Runs != ref.Runs || sum.Detected != ref.Detected ||
					sum.Masked != ref.Masked || sum.NotFired != ref.NotFired ||
					sum.MeanDetectionCycles != ref.MeanDetectionCycles ||
					sum.TotalCycles != ref.TotalCycles {
					t.Fatalf("workers=%d summary differs from workers=1:\n%+v\nvs\n%+v", workers, sum, ref)
				}
				if sum.Coverage() != ref.Coverage() {
					t.Fatalf("workers=%d Coverage %v differs from workers=1 Coverage %v",
						workers, sum.Coverage(), ref.Coverage())
				}
				for i := range sum.Results {
					if sum.Results[i] != ref.Results[i] {
						t.Fatalf("workers=%d trial %d = %+v, workers=1 got %+v",
							workers, i, sum.Results[i], ref.Results[i])
					}
				}
			}
		})
	}
}
