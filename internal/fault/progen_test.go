package fault

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/progen"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Generated-corpus fault battery: the fixed corpus the sim layer replays
// (progen.CorpusSeeds(genCorpusSeed, ...)) also has to hold up the
// campaign machinery's claim that a statically-masked site can never fire
// as anything but masked, on kernels nobody hand-tuned. Campaign sizes are
// explicit and small: Plan draws AtSeq inside [Warmup/2,
// Warmup+Budget/2], and every generated kernel runs at least ~20k dynamic
// instructions, so these sizes guarantee each fault fires well before
// HALT.

const genCorpusSeed = 0xC0FFEE

func genFaultSpec(mode sim.Mode, progs ...string) sim.Spec {
	s := faultSpec(mode, progs...)
	s.Budget, s.Warmup = 2500, 1000
	return s
}

func genNames(n int) []string {
	seeds := progen.CorpusSeeds(genCorpusSeed, n)
	names := make([]string, n)
	for i, s := range seeds {
		names[i] = progen.Name(s)
	}
	return names
}

// TestGenPrunedCampaignByteIdentical: the static-masking cross-validation
// over generated kernels — every campaign trial that fires at a site the
// ACE analysis proves masked must replay byte-identical to the result a
// pruned (never replayed) trial would carry: Masked at the golden end
// cycle.
func TestGenPrunedCampaignByteIdentical(t *testing.T) {
	landed := maskedLandingGate(t)
	for _, name := range genNames(6) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			landed.Add(int64(crossValidateStaticMasking(t, genFaultSpec(sim.ModeSRT, name), 48, 0xACE, 4)))
		})
	}
}

// TestGenStaticMaskedSitesExhaustive: for generated kernels, exhaustive
// targeted injection at every statically-masked site the ACE analysis
// claims, capped per kernel — a fault-free observer run records the first
// dynamic sequence each masked pc executes, and a transient there must
// classify Masked. Generated kernels have few masked sites by
// construction (every register is initialised and read), so whatever the
// analysis does claim on them is exactly the kind of marginal claim worth
// refuting dynamically.
func TestGenStaticMaskedSitesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("per-site sweep; skipped in -short")
	}
	const maxSitesPerKernel = 4
	sites, kernelsWithSites := 0, 0
	for _, name := range genNames(12) {
		prog, err := progen.Build(name)
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
		kernelsWithSites++
		spec := genFaultSpec(sim.ModeSRT, name)
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
		tried := 0
		for _, site := range prof.MaskedSites {
			if tried >= maxSitesPerKernel {
				break
			}
			seq, executed := firstSeq[uint64(site.PC)]
			if !executed {
				continue
			}
			tried++
			for _, target := range []Copy{LeadingCopy, TrailingCopy} {
				for _, bit := range []uint{0, 33, 63} {
					f := Transient{Target: target, AtSeq: seq, Point: vm.PointResult, Bit: bit}
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
	t.Logf("validated %d targeted injections across %d generated kernels with masked sites",
		sites, kernelsWithSites)
}

// TestGenCRTMixCampaignDeterministic: a randomized 2-pair cross-coupled
// CRT mix's campaign summary and per-trial results must be invariant to
// the parallelism the campaign ran at — the acceptance shape the rmtd
// /campaign endpoint relies on for cache coherence.
func TestGenCRTMixCampaignDeterministic(t *testing.T) {
	pair := progen.MixPairs(genCorpusSeed, 1)[0]
	spec := genFaultSpec(sim.ModeCRT, pair[0], pair[1])
	const n, seed = 32, 0xBEEF
	serial, err := Campaign(spec, n, seed, CampaignOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Campaign(spec, n, seed, CampaignOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Runs != parallel.Runs || serial.Detected != parallel.Detected ||
		serial.Masked != parallel.Masked || serial.NotFired != parallel.NotFired ||
		serial.MeanDetectionCycles != parallel.MeanDetectionCycles ||
		serial.TotalCycles != parallel.TotalCycles {
		t.Fatalf("parallelism changed the summary:\n-p1: %+v\n-p4: %+v", serial, parallel)
	}
	for i := range serial.Results {
		if serial.Results[i] != parallel.Results[i] {
			t.Fatalf("trial %d: -p1 %+v, -p4 %+v", i, serial.Results[i], parallel.Results[i])
		}
	}
	if serial.Detected == 0 {
		t.Error("no fault detected across the CRT mix campaign — injection not biting")
	}
}
