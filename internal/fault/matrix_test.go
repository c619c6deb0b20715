package fault

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vm"
)

// The mode-matrix fault-coverage battery: the same injections, aimed at the
// same dynamic sites, across EVERY machine organisation, asserting the
// expected outcome class per (mode, site-class) cell:
//
//	site class      base/base2/lockstep  srt/crt    srtr       adaptive θ=.5
//	masked result   masked               masked     recovered  masked
//	store data      masked (silent!)     detected   recovered  det/masked/sdc
//	store addr      masked (silent!)     detected   recovered  det/masked/sdc
//	load value      masked (silent!)     detected   recovered  det/masked/sdc
//
// "masked" in the unprotected modes means undetected — the model simulates
// no comparison boundary there (for lockstep, the checker's second core is
// folded into latency penalties, see DESIGN.md), so the same corruption
// that SRT flags runs to completion silently; the battery additionally
// checks the architectural digest to show the corruption really did land
// (the SDC the redundant modes exist to stop). SRTR rows must not merely
// detect: every detected-class injection rolls back, re-executes, and ends
// with machine state byte-identical to the fault-free golden run.

// matrixSpec is the battery's spec for one mode, with the mode-specific
// knobs set the way the campaign layers set them.
func matrixSpec(mode sim.Mode, names ...string) sim.Spec {
	s := faultSpec(mode, names...)
	s.Budget, s.Warmup = 2500, 800
	switch mode {
	case sim.ModeLockstep:
		s.CheckerLatency = 8
	case sim.ModeAdaptive:
		s.AdaptiveThreshold = 0.5
	}
	return s
}

// runOneKeep mirrors runOneWith but hands back the trial machine so the
// battery can make byte-level assertions about post-run state.
func runOneKeep(spec sim.Spec, f Transient, golden *[32]byte) (Result, *sim.Machine, error) {
	spec.StopOnDetection = true
	m, err := sim.Build(spec)
	if err != nil {
		return Result{}, nil, err
	}
	res, err := runArmed(m, f, golden)
	return res, m, err
}

// normSnapshot serialises the machine with the harness-perturbed Tolerant
// flags cleared, so trial state can be compared byte-for-byte against a
// fault-free reference.
func normSnapshot(t *testing.T, m *sim.Machine) []byte {
	t.Helper()
	for i := range m.Leads {
		m.Leads[i].Arch.Tolerant = false
		if tr := m.Trails[i]; tr != nil {
			tr.Arch.Tolerant = false
		}
	}
	b, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenRun simulates spec fault-free and returns the finished machine.
func goldenRun(t *testing.T, spec sim.Spec) *sim.Machine {
	t.Helper()
	m, err := sim.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

// maskedTargets reports which copies a mode can strike: only the paired
// organisations have a trailing copy.
func maskedTargets(mode sim.Mode) []Copy {
	if mode.Paired() {
		return []Copy{LeadingCopy, TrailingCopy}
	}
	return []Copy{LeadingCopy}
}

// TestModeMatrixMaskedSites runs the exhaustive statically-masked-site gate
// across every mode: a targeted flip of a provably-dead destination
// register must classify Masked everywhere — except SRTR, whose register
// value queue compares every retired destination value and therefore
// detects (and recovers from) even architecturally-dead corruption, with
// post-recovery state byte-identical to the fault-free run.
func TestModeMatrixMaskedSites(t *testing.T) {
	if testing.Short() {
		t.Skip("mode-matrix sweep; skipped in -short")
	}
	// Collect, once, every executed masked site across the curated kernels:
	// the observer run records the first dynamic sequence number at which
	// each statically-masked pc executes. The functional instruction stream
	// is mode-invariant (same program, oracle frontend), so the recorded
	// (seq, pc) sites are valid injection targets for every mode.
	type site struct {
		pc  int
		seq uint64
	}
	kernels := map[string][]site{}
	var names []string
	for _, name := range program.Names() {
		prog, err := program.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := analysis.AnalyzeProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(prof.MaskedSites) == 0 {
			continue
		}
		m, err := sim.Build(matrixSpec(sim.ModeSRT, name))
		if err != nil {
			t.Fatal(err)
		}
		firstSeq := map[uint64]uint64{}
		m.Leads[0].Arch.Corrupt = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
			if point == vm.PointResult && seq >= 64 {
				if _, ok := firstSeq[pc]; !ok {
					firstSeq[pc] = seq
				}
			}
			return v
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s observer run: %v", name, err)
		}
		for _, s := range prof.MaskedSites {
			if seq, ok := firstSeq[uint64(s.PC)]; ok {
				kernels[name] = append(kernels[name], site{pc: s.PC, seq: seq})
			}
		}
		if len(kernels[name]) > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no kernel has an executed masked site")
	}

	for _, mode := range sim.Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			want := Masked
			if mode == sim.ModeSRTR {
				want = Recovered
			}
			goldenSnaps := map[string][]byte{}
			injections := 0
			for _, name := range names {
				spec := matrixSpec(mode, name)
				golden, err := goldenDigest(spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range kernels[name] {
					for _, target := range maskedTargets(mode) {
						for _, bit := range []uint{0, 63} {
							f := Transient{Target: target, AtSeq: s.seq, Point: vm.PointResult, Bit: bit}
							res, m, err := runOneKeep(spec, f, golden)
							if err != nil {
								t.Fatalf("%s pc=%d %v: %v", name, s.pc, f, err)
							}
							if res.Outcome != want {
								t.Errorf("%s pc=%d %v: outcome %v, want %v",
									name, s.pc, f, res.Outcome, want)
							}
							injections++
							if mode == sim.ModeSRTR && res.Outcome == Recovered {
								ref := goldenSnaps[name]
								if ref == nil {
									ref = normSnapshot(t, goldenRun(t, spec))
									goldenSnaps[name] = ref
								}
								if !bytes.Equal(normSnapshot(t, m), ref) {
									t.Errorf("%s pc=%d %v: post-recovery state differs from fault-free golden",
										name, s.pc, f)
								}
							}
						}
					}
				}
			}
			t.Logf("%v: %d masked-site injections, want %v", mode, injections, want)
		})
	}
}

// TestModeMatrixTargetedInjections aims known-unmasked injections — store
// data, store address, load value — at every mode and asserts the expected
// outcome class per cell: detection at the sphere boundary for SRT/CRT,
// detection-plus-rollback for SRTR (byte-identical final state), silent
// completion for the unprotected organisations (with the architectural
// digest confirming the corruption landed), and any fired classification
// for partial redundancy (which cell a trial hits depends on whether the
// struck instruction is inside the protected region).
func TestModeMatrixTargetedInjections(t *testing.T) {
	if testing.Short() {
		t.Skip("mode-matrix sweep; skipped in -short")
	}
	cells := []struct {
		cell, kernel string
		point        vm.CorruptPoint
		bit          uint
		leadOnly     bool
	}{
		{"store-data", "compress", vm.PointStoreData, 5, false},
		{"store-addr", "vortex", vm.PointStoreAddr, 3, false},
		{"load-value", "li", vm.PointLoadValue, 0, true},
	}
	const atSeq = 1500
	for _, mode := range sim.Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			sdcSeen := false
			for _, c := range cells {
				spec := matrixSpec(mode, c.kernel)
				golden, err := goldenDigest(spec)
				if err != nil {
					t.Fatal(err)
				}
				var goldenSnap []byte
				var goldenArch [32]byte
				haveArch := false
				targets := maskedTargets(mode)
				if c.leadOnly {
					targets = targets[:1]
				}
				for _, target := range targets {
					f := Transient{Target: target, AtSeq: atSeq, Point: c.point, Bit: c.bit}
					res, m, err := runOneKeep(spec, f, golden)
					if err != nil {
						t.Fatalf("%s %v: %v", c.cell, f, err)
					}
					switch mode {
					case sim.ModeSRT, sim.ModeCRT:
						if res.Outcome != Detected {
							t.Errorf("%s %v: outcome %v, want detected", c.cell, f, res.Outcome)
						}
					case sim.ModeSRTR:
						if res.Outcome != Recovered || res.Recoveries == 0 {
							t.Errorf("%s %v: outcome %v (%d rollbacks), want recovered",
								c.cell, f, res.Outcome, res.Recoveries)
							continue
						}
						if goldenSnap == nil {
							goldenSnap = normSnapshot(t, goldenRun(t, spec))
						}
						if !bytes.Equal(normSnapshot(t, m), goldenSnap) {
							t.Errorf("%s %v: post-recovery state differs from fault-free golden", c.cell, f)
						}
					case sim.ModeAdaptive:
						if res.Outcome == NotFired {
							t.Errorf("%s %v: never fired", c.cell, f)
						}
					default: // base, base2, lockstep: no boundary in the model
						if res.Outcome != Masked {
							t.Errorf("%s %v: outcome %v, want masked (no comparison boundary)",
								c.cell, f, res.Outcome)
						}
						if !haveArch {
							goldenArch = goldenRun(t, spec).ArchDigest()
							haveArch = true
						}
						if m.ArchDigest() != goldenArch {
							sdcSeen = true
						}
					}
				}
			}
			if !mode.Paired() && !sdcSeen {
				t.Errorf("%v: no injection corrupted architectural state; the silent-corruption contrast is gone", mode)
			}
		})
	}
}

// TestSRTRCampaignRecoversCurated is the SRTR acceptance gate over the
// curated kernel registry: a fault campaign on every kernel must classify
// every detected-class injection as Recovered — zero standing detections,
// zero silent corruption — and recovered trials re-verified individually
// must end byte-identical to the fault-free golden run.
func TestSRTRCampaignRecoversCurated(t *testing.T) {
	if testing.Short() {
		t.Skip("per-kernel campaign sweep; skipped in -short")
	}
	totalRecovered := 0
	for _, name := range program.Names() {
		spec := matrixSpec(sim.ModeSRTR, name)
		sum, err := Campaign(spec, 8, 0xD15EA5E, runner.Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sum.Detected != 0 || sum.UnprotectedSDC != 0 {
			t.Errorf("%s: %d standing detections, %d SDC — SRTR must recover every detected-class injection",
				name, sum.Detected, sum.UnprotectedSDC)
		}
		if sum.Recovered+sum.Masked+sum.NotFired != sum.Runs {
			t.Errorf("%s: classification doesn't partition: %+v", name, sum)
		}
		totalRecovered += sum.Recovered
		verified := 0
		var goldenSnap []byte
		for _, res := range sum.Results {
			if res.Outcome != Recovered || verified >= 2 {
				continue
			}
			res2, m, err := runOneKeep(spec, res.Fault, nil)
			if err != nil {
				t.Fatalf("%s re-run %v: %v", name, res.Fault, err)
			}
			if res2.Outcome != Recovered {
				t.Errorf("%s re-run %v: outcome %v, campaign said recovered", name, res.Fault, res2.Outcome)
				continue
			}
			if goldenSnap == nil {
				goldenSnap = normSnapshot(t, goldenRun(t, spec))
			}
			if !bytes.Equal(normSnapshot(t, m), goldenSnap) {
				t.Errorf("%s %v: post-recovery state differs from fault-free golden", name, res.Fault)
			}
			verified++
		}
	}
	if totalRecovered == 0 {
		t.Fatal("no campaign trial recovered: the battery exercised nothing")
	}
	t.Logf("recovered %d trials across %d kernels", totalRecovered, len(program.Names()))
}

// TestSRTRCampaignRecoversGenCorpus runs the same acceptance gate over the
// 32-kernel generated corpus — programs nobody hand-tuned, the same seeds
// the sim layer's differential batteries replay.
func TestSRTRCampaignRecoversGenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("per-kernel campaign sweep; skipped in -short")
	}
	totalRecovered := 0
	names := genNames(32)
	for i, name := range names {
		spec := genFaultSpec(sim.ModeSRTR, name)
		sum, err := Campaign(spec, 6, 0xD15EA5E, runner.Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i < 2 {
			// Campaign determinism across parallelism, on generated kernels:
			// a recovery-bearing campaign must produce the identical summary
			// regardless of worker count.
			wide, err := Campaign(spec, 6, 0xD15EA5E, runner.Options{Parallelism: 4})
			if err != nil {
				t.Fatalf("%s wide: %v", name, err)
			}
			if !reflect.DeepEqual(sum, wide) {
				t.Errorf("%s: summary depends on parallelism:\n2: %+v\n4: %+v", name, sum, wide)
			}
		}
		if sum.Detected != 0 || sum.UnprotectedSDC != 0 {
			t.Errorf("%s: %d standing detections, %d SDC — SRTR must recover every detected-class injection",
				name, sum.Detected, sum.UnprotectedSDC)
		}
		if sum.Recovered+sum.Masked+sum.NotFired != sum.Runs {
			t.Errorf("%s: classification doesn't partition: %+v", name, sum)
		}
		totalRecovered += sum.Recovered
	}
	if totalRecovered == 0 {
		t.Fatal("no campaign trial recovered across the generated corpus")
	}
	t.Logf("recovered %d trials across %d generated kernels", totalRecovered, len(names))
}

// TestSRTRSnapshotRestoreAcrossRollback: the snapshot substrate must be
// transparent to recovery. A faulty SRTR run is snapshotted on the
// checkpoint grid two intervals before the fault fires; restoring that
// snapshot into a fresh machine, re-arming the same transient, and running
// to completion must go through the identical rollback and finish with
// machine state byte-identical to the uninterrupted faulty run. The
// restored run is given no checkpoint list, so it trusts its entry
// checkpoint; the two intervals let it validate the rollback target the
// uninterrupted run holds before the fault fires. (Campaign replays resume
// the golden run's list instead and need no margin.)
func TestSRTRSnapshotRestoreAcrossRollback(t *testing.T) {
	spec := faultSpec(sim.ModeSRTR, "compress")
	f := Transient{Target: LeadingCopy, AtSeq: 6000, Point: vm.PointStoreData, Bit: 7}

	m, err := sim.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fired, err := f.Arm(m)
	if err != nil {
		t.Fatal(err)
	}
	// Record a snapshot at every checkpoint boundary until the fault fires.
	type boundarySnap struct {
		cycle uint64
		data  []byte
	}
	var snaps []boundarySnap
	m.OnCycle = func(cycle uint64) error {
		if cycle%1024 == 0 && cycle > 0 && !fired() {
			data, err := m.Snapshot()
			if err != nil {
				return err
			}
			snaps = append(snaps, boundarySnap{cycle, data})
		}
		return nil
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired() {
		t.Fatal("fault never fired; pick an earlier AtSeq")
	}
	if m.Recoveries == 0 {
		t.Fatal("uninterrupted run did not recover; the test exercises nothing")
	}
	if len(snaps) < 3 {
		t.Fatalf("only %d pre-fire boundaries; fault fires too early for a mid-run restore", len(snaps))
	}
	mid := snaps[len(snaps)-3] // two intervals of slack before the fire
	refSnap := normSnapshot(t, m)

	r, err := sim.Restore(spec, mid.data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != mid.cycle {
		t.Fatalf("restored at cycle %d, want %d", r.Cycles, mid.cycle)
	}
	if _, err := f.Arm(r); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Recoveries != m.Recoveries || r.RecoveryCycles != m.RecoveryCycles {
		t.Errorf("restored run recovered differently: %d rollbacks/%d cycles, want %d/%d",
			r.Recoveries, r.RecoveryCycles, m.Recoveries, m.RecoveryCycles)
	}
	if !bytes.Equal(normSnapshot(t, r), refSnap) {
		t.Error("restored run's final state differs from the uninterrupted faulty run")
	}
}

// TestAdaptiveCampaignFrontier pins the two ends of the coverage/slowdown
// frontier: θ = 0 protects everything (no silent corruption possible,
// exactly SRT's campaign behaviour), while a high θ strips protection from
// most of the program and must let some injections through as
// UnprotectedSDC — the coverage loss the adaptive figure quantifies.
func TestAdaptiveCampaignFrontier(t *testing.T) {
	run := func(theta float64) *CampaignSummary {
		spec := matrixSpec(sim.ModeAdaptive, "gcc")
		spec.AdaptiveThreshold = theta
		sum, err := Campaign(spec, 48, 0xF00D, runner.Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("θ=%v: %v", theta, err)
		}
		return sum
	}
	full := run(0)
	if full.UnprotectedSDC != 0 {
		t.Errorf("θ=0: %d unprotected SDCs; full protection must have none", full.UnprotectedSDC)
	}
	sparse := run(0.95)
	if sparse.UnprotectedSDC == 0 {
		t.Error("θ=0.95: no unprotected SDC across 48 trials; gating is not biting")
	}
	if sparse.Coverage() >= full.Coverage() {
		t.Errorf("coverage did not drop: θ=0.95 %.3f vs θ=0 %.3f", sparse.Coverage(), full.Coverage())
	}
	t.Logf("coverage θ=0: %.3f, θ=0.95: %.3f (SDC %d/%d)",
		full.Coverage(), sparse.Coverage(), sparse.UnprotectedSDC, sparse.Runs)
}
