package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/pipeline" //rmtlint:allow layering — the snapshot probe builds sim machines directly to time encode and restore, which the facade does not expose
	"repro/internal/progen"   //rmtlint:allow layering — generated kernel names come from the generator's corpus derivation
	"repro/internal/sim"      //rmtlint:allow layering — the snapshot probe times sim.Machine.Snapshot and sim.Restore directly
	"repro/rmt"
)

// campaignModes are the campaign-capable machine organisations the
// workload sweeps, each with the PSR setting the paper uses after Fig. 7.
var campaignModes = []rmt.Spec{
	{Mode: rmt.SRT, PSR: true},
	{Mode: rmt.CRT, PSR: true},
	{Mode: rmt.SRTR, PSR: true},
	{Mode: rmt.Adaptive, PSR: true, AdaptiveThreshold: 0.5},
}

// campaignTrials is each campaign's trial count, the size of the
// repository's canonical campaign benchmark. One pass over the 24
// campaigns takes campaignPass on the reference host.
const (
	campaignTrials = 96
	campaignPass   = 10 * time.Second
)

// genCorpus is the fixed generated-kernel corpus the repository's
// batteries pin; its first genPool kernels complete under every machine
// organisation. The timing workloads (campaign, serve) draw generated
// kernels only from it: a few generated kernels in a thousand deadlock the
// SRT or adaptive machine ("no retirement progress"), and a workload must
// be one on which no operation fails.
const (
	genCorpus = 0xC0FFEE
	genPool   = 64
)

var campaign = &workload{
	name: "campaign",
	why:  "24 seeded fault campaigns of 96 trials (srt, crt, srtr, adaptive x 4 paper + 2 generated kernels): snapshot restore and short replays dominate",
	setup: func(s *recorder) (*prepared, error) {
		kernels := []string{"compress", "swim", "li", "gcc"}
		// Fixed kernels: a kernel's IPC sets how many golden checkpoints a
		// campaign holds, so seeded kernels would swing memory and cost from
		// run to run. The seed draws the fault plans instead.
		for _, seed := range progen.CorpusSeeds(genCorpus, 2) {
			kernels = append(kernels, progen.Name(seed))
		}
		trials := campaignTrials
		var opts []rmt.Option
		if s.cfg.smoke {
			kernels, trials = kernels[3:5], 8
			opts = append(opts, rmt.WithBudget(3000), rmt.WithWarmup(1000))
		}
		var specs []rmt.CampaignSpec
		for mi, m := range campaignModes {
			for ki, k := range kernels {
				spec := m
				spec.Programs = []string{k}
				specs = append(specs, rmt.CampaignSpec{Spec: spec, N: trials, Seed: mix(s.cfg.seed, uint64(mi*len(kernels)+ki))})
			}
		}
		// Verify and analyse every kernel (the adaptive mode's protection
		// table comes from the same static ACE profile), then warm the
		// process on a full campaign of the first spec: the first campaigns
		// in a process run slower while the heap grows to its working size.
		for _, k := range kernels {
			if issues, err := rmt.CheckKernel(k); err != nil || len(issues) > 0 {
				return nil, fmt.Errorf("kernel %s fails verification: %v %v", k, err, issues)
			}
			if _, err := rmt.AnalyzeKernel(k); err != nil {
				return nil, err
			}
		}
		if _, err := rmt.Campaign(context.Background(), specs[0], append(opts, rmt.WithParallelism(parallelism))...); err != nil {
			return nil, err
		}

		var firstDigest string
		measure := func(window time.Duration) error {
			start := now()
			var busy, wall time.Duration
			var trialsRun int
			var cyclesRun float64
			err := passes(window, campaignPass, func(pass int) error {
				h := sha256.New()
				var cycles float64
				var passTrials int
				outcomes := map[string]float64{}
				for i, cs := range specs {
					settle()
					sp := s.begin("campaign."+cs.Spec.Mode.String(), 0, 0, int64(i))
					sum, err := rmt.Campaign(context.Background(), cs, append(opts, rmt.WithParallelism(parallelism),
						rmt.WithReport(func(r rmt.Report) {
							busy += r.Busy
							wall += r.Wall
						}))...)
					d := sp.end()
					if err == nil {
						err = checkCampaign(cs, sum)
					}
					if err == nil {
						b, _ := json.Marshal(sum) // plain ints, floats and strings: cannot fail
						h.Write(b)
						cycles += float64(sum.TotalCycles)
						passTrials += sum.Runs
						outcomes["detected"] += float64(sum.Detected)
						outcomes["masked"] += float64(sum.Masked)
						outcomes["recovered"] += float64(sum.Recovered)
						outcomes["not_fired"] += float64(sum.NotFired)
						outcomes["unprotected_sdc"] += float64(sum.UnprotectedSDC)
					}
					s.op(strconv.Itoa(i), d, err)
				}
				cyclesRun += cycles
				trialsRun += passTrials
				s.addWork(float64(passTrials))
				digest := hex.EncodeToString(h.Sum(nil))
				if firstDigest == "" {
					firstDigest = digest
				}
				s.verify(sameDigest("campaign pass", digest, firstDigest))
				s.setDigest(digest)
				s.count("sim_cycles", cycles)
				s.count("trials", float64(len(specs)*trials))
				for _, k := range []string{"detected", "masked", "recovered", "not_fired", "unprotected_sdc"} {
					s.count("outcome."+k, outcomes[k])
				}
				return nil
			})
			elapsed := time.Since(start).Seconds()
			s.set("runner.busy_s", busy.Seconds())
			if wall > 0 {
				s.set("runner.speedup", float64(busy)/float64(wall))
			}
			s.set("sim_mcycles_per_s", cyclesRun/1e6/elapsed)
			s.set("trials_per_s", float64(trialsRun)/elapsed)
			return err
		}
		after := func(traced bool) {
			if traced {
				snapshotProbe(s, specs, opts)
			}
		}
		return &prepared{measure: measure, after: after, close: func() {}}, nil
	},
}

// checkCampaign holds a summary to the invariants every campaign must
// satisfy: one outcome per trial, classifications that add up, and no
// silent corruption outside adaptive mode (SRT, CRT and SRTR protect every
// instruction).
func checkCampaign(cs rmt.CampaignSpec, sum *rmt.CampaignSummary) error {
	tally := sum.Detected + sum.Masked + sum.NotFired + sum.Recovered + sum.UnprotectedSDC
	switch {
	case sum.Runs != cs.N || len(sum.Outcomes) != cs.N || tally != cs.N:
		return fmt.Errorf("campaign %s %v: %d runs, %d outcomes, %d classified, want %d",
			cs.Spec.Mode, cs.Spec.Programs, sum.Runs, len(sum.Outcomes), tally, cs.N)
	case cs.Spec.Mode != rmt.Adaptive && sum.UnprotectedSDC != 0:
		return fmt.Errorf("campaign %s %v: %d unprotected SDCs in a fully protected mode",
			cs.Spec.Mode, cs.Spec.Programs, sum.UnprotectedSDC)
	case sum.TotalCycles == 0:
		return fmt.Errorf("campaign %s %v: no simulated cycles", cs.Spec.Mode, cs.Spec.Programs)
	}
	return nil
}

func sameDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s digest %s differs from the run's first pass %s: output is not deterministic", what, got, want)
	}
	return nil
}

// snapshotProbe times the operations the campaign engine repeats: a
// machine snapshot at mid-run, its restore, and a one-trial campaign (the
// golden pass plus one replay), for each mode on the first kernel.
func snapshotProbe(s *recorder, specs []rmt.CampaignSpec, opts []rmt.Option) {
	var enc, dec, size, golden []float64
	budget, warmup := rmt.DefaultCampaignBudget, rmt.DefaultCampaignWarmup
	if s.cfg.smoke {
		budget, warmup = 3000, 1000
	}
	seen := map[rmt.Mode]bool{}
	for _, cs := range specs {
		if seen[cs.Spec.Mode] {
			continue
		}
		seen[cs.Spec.Mode] = true
		spec := sim.Spec{
			Mode: simMode(cs.Spec.Mode), Programs: cs.Spec.Programs, Budget: budget, Warmup: warmup,
			Config: pipeline.DefaultConfig(), PSR: cs.Spec.PSR, AdaptiveThreshold: cs.Spec.AdaptiveThreshold,
		}
		m, err := sim.Build(spec)
		if err != nil {
			s.verify(fmt.Errorf("snapshot probe: %w", err))
			continue
		}
		var snap []byte
		m.OnCycle = func(cycle uint64) error {
			if snap == nil && cycle == 2048 {
				t := now()
				b, err := m.Snapshot()
				enc = append(enc, float64(time.Since(t).Nanoseconds())/1e6)
				snap = b
				return err
			}
			return nil
		}
		if _, err := m.Run(); err != nil || snap == nil {
			s.verify(fmt.Errorf("snapshot probe %s: run: %v (snapshot taken: %v)", cs.Spec.Mode, err, snap != nil))
			continue
		}
		t := now()
		if _, err := sim.Restore(spec, snap); err != nil {
			s.verify(fmt.Errorf("snapshot probe %s: restore: %w", cs.Spec.Mode, err))
			continue
		}
		dec = append(dec, float64(time.Since(t).Nanoseconds())/1e6)
		size = append(size, float64(len(snap)))

		one := cs
		one.N = 1
		t = now()
		if _, err := rmt.Campaign(context.Background(), one, append(opts, rmt.WithParallelism(1))...); err != nil {
			s.verify(fmt.Errorf("golden probe %s: %w", cs.Spec.Mode, err))
			continue
		}
		golden = append(golden, time.Since(t).Seconds())
	}
	s.set("snap.encode_ms", median(enc))
	s.set("snap.decode_ms", median(dec))
	s.set("snap.bytes", median(size))
	s.set("campaign.golden_s", median(golden))
}

// simMode finds the engine mode the facade mode names; both spell their
// modes identically.
func simMode(m rmt.Mode) sim.Mode {
	for _, sm := range sim.Modes() {
		if sm.String() == m.String() {
			return sm
		}
	}
	return sim.ModeBase
}

// mix derives the i-th independent 64-bit seed from a run seed
// (splitmix64), so every campaign and request draws its own stream.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
