package fault

import (
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/progen"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vm"
)

// staticMaskedSites runs the ACE analysis over each of the spec's programs
// and returns, per logical thread, the set of pcs whose destination-register
// injection site is provably masked (nil when the analysis is conservative
// and proves nothing).
func staticMaskedSites(t *testing.T, spec sim.Spec) []map[uint64]bool {
	t.Helper()
	out := make([]map[uint64]bool, len(spec.Programs))
	for i, name := range spec.Programs {
		prog, err := progen.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := analysis.AnalyzeProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Conservative {
			continue
		}
		out[i] = make(map[uint64]bool, len(prof.MaskedSites))
		for _, s := range prof.MaskedSites {
			out[i][uint64(s.PC)] = true
		}
	}
	return out
}

// crossValidateStaticMasking is the dynamic check of the static ACE
// analysis over one campaign. An observer pass over the fault-free run
// records, per planned fault, the victim pc at which it fires — by the
// campaign engine's trigger rule: the first corruption call with seq >=
// AtSeq at the fault's point — and the golden end cycle. The ordinary
// Campaign then runs, and every fired result or load-value fault whose
// fire pc the analysis proves masked must come back exactly as that proof
// predicts: Masked, zero detection latency, the golden end cycle. Trials of
// a pair whose golden run is itself unhealthy (detections, or lead and
// trail halting differently) are classified Detected from end state and
// skipped. Not for SRTR specs: its register value queue detects, and
// recovers from, flips the analysis proves architecturally masked. It
// logs and returns how many trials landed on a masked site.
func crossValidateStaticMasking(t *testing.T, spec sim.Spec, n int, seed uint64, parallelism int) int {
	t.Helper()
	masked := staticMaskedSites(t, spec)
	faults := Plan(spec, n, seed)

	spec.StopOnDetection = true
	g, err := sim.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fired := make([]bool, len(faults))
	firePC := make([]uint64, len(faults))
	for logical := range g.Leads {
		for _, target := range []Copy{LeadingCopy, TrailingCopy} {
			ctx := g.Leads[logical]
			if target == TrailingCopy {
				ctx = g.Trails[logical]
			}
			if ctx == nil {
				continue
			}
			ctx.Arch.Corrupt = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
				for i, f := range faults {
					if f.Logical == logical && f.Target == target && !fired[i] &&
						seq >= f.AtSeq && point == f.Point {
						fired[i], firePC[i] = true, pc
					}
				}
				return v
			}
		}
	}
	if _, err := g.Run(); err != nil {
		t.Fatalf("observer run: %v", err)
	}
	goldenEnd := g.Cores[0].Cycle()
	healthy := make([]bool, len(g.Leads))
	for i, lead := range g.Leads {
		tr := g.Trails[i]
		healthy[i] = len(g.Detections()) == 0 && (tr == nil || lead.Arch.Halted == tr.Arch.Halted)
	}

	sum, err := Campaign(spec, n, seed, runner.Options{Parallelism: parallelism})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	landed := 0
	for i, f := range faults {
		if !fired[i] || !healthy[f.Logical] || !masked[f.Logical][firePC[i]] ||
			(f.Point != vm.PointResult && f.Point != vm.PointLoadValue) {
			continue
		}
		landed++
		want := Result{Fault: f, Outcome: Masked, Cycles: goldenEnd}
		if got := sum.Results[i]; got != want {
			t.Errorf("trial %d (%v) at statically-masked pc %d: got %+v, want %+v",
				i, f, firePC[i], got, want)
		}
	}
	t.Logf("%d trials landed on statically-masked sites", landed)
	return landed
}

// maskedLandingGate returns a counter for t's subtests to add their
// crossValidateStaticMasking landings to, and fails t once every subtest
// has finished if none landed: a gate that never puts a trial on a masked
// site checks nothing.
func maskedLandingGate(t *testing.T) *atomic.Int64 {
	var landed atomic.Int64
	t.Cleanup(func() {
		if landed.Load() == 0 {
			t.Error("no trial landed on a statically-masked site: the gate no longer exercises the analysis")
		}
	})
	return &landed
}

// TestStaticMaskingCrossValidation is the acceptance gate for the ACE
// analysis: over every registered kernel, every campaign trial that fires
// at a statically-masked site must replay to exactly the result the proof
// predicts. A failure here means the static analysis claimed a proof the
// machine refutes.
func TestStaticMaskingCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation sweeps every kernel; skipped in -short")
	}
	landed := maskedLandingGate(t)
	for _, name := range program.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := faultSpec(sim.ModeSRT, name)
			spec.Budget, spec.Warmup = 2000, 800
			landed.Add(int64(crossValidateStaticMasking(t, spec, 48, 0xC0DE, 2)))
		})
	}
}

// TestStaticMaskedSitesExhaustive aims one injection at EVERY
// statically-masked site of every kernel, rather than waiting for a random
// plan to land on one: a fault-free observer run records the first dynamic
// sequence number at which each masked pc executes, and a targeted
// transient at exactly that sequence must classify Masked for both copies
// and several bit positions. Together with the randomized cross-validation
// above this discharges the claim that no statically-masked site can fire
// as detected.
func TestStaticMaskedSitesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("per-site sweep; skipped in -short")
	}
	sites := 0
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
		spec := faultSpec(sim.ModeSRT, name)
		spec.Budget, spec.Warmup = 2500, 800
		m, err := sim.Build(spec)
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
		for _, site := range prof.MaskedSites {
			seq, executed := firstSeq[uint64(site.PC)]
			if !executed {
				// Statically reachable but not covered within the budget
				// (or unreachable by construction): no dynamic site exists.
				continue
			}
			points := []vm.CorruptPoint{vm.PointResult}
			if prog.Code[site.PC].IsLoad() {
				points = append(points, vm.PointLoadValue)
			}
			for _, target := range []Copy{LeadingCopy, TrailingCopy} {
				for _, point := range points {
					for _, bit := range []uint{0, 33, 63} {
						f := Transient{Target: target, AtSeq: seq, Point: point, Bit: bit}
						res, err := RunOne(spec, f)
						if err != nil {
							t.Fatalf("%s pc=%d (%s, %s) %v: %v", name, site.PC, site.Reg, site.Reason, f, err)
						}
						if res.Outcome != Masked {
							t.Errorf("%s pc=%d (%s, %s) %v: outcome %v, want masked",
								name, site.PC, site.Reg, site.Reason, f, res.Outcome)
						}
						sites++
					}
				}
			}
		}
	}
	if sites == 0 {
		t.Fatal("no masked site was exercised: kernels lost all masked sites?")
	}
	t.Logf("validated %d targeted injections at statically-masked sites", sites)
}
