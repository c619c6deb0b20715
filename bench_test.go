// Benchmarks, one per table/figure of the paper's evaluation (DESIGN.md's
// experiment index), plus ablation benches for the design choices called
// out there. Each benchmark runs the same experiment code as cmd/rmtbench
// and reports the headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation at reduced size (use cmd/rmtbench for
// the full-size recorded numbers in EXPERIMENTS.md).
package repro

import (
	"context"
	"testing"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/rmt"
)

func benchParams(b *testing.B) exp.Params {
	p := exp.Quick()
	if !testing.Short() {
		p.Budget = 15000
		p.Warmup = 10000
	}
	return p
}

// benchExperiment runs one experiment per iteration and reports its summary
// metrics.
func benchExperiment(b *testing.B, run func(exp.Params) (*stats.Table, map[string]float64, error)) {
	p := benchParams(b)
	b.ResetTimer()
	var summary map[string]float64
	for i := 0; i < b.N; i++ {
		var err error
		_, summary, err = run(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range stats.SortedKeys(summary) {
		b.ReportMetric(summary[k], k)
	}
}

// BenchmarkTable1_BaseIPC measures the base machine itself: simulated IPC
// on a representative kernel and simulator throughput (simulated cycles per
// wall-second is the benchmark's ns/op inverse).
func BenchmarkTable1_BaseIPC(b *testing.B) {
	p := benchParams(b)
	var ipc float64
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := sim.Build(sim.Spec{
			Mode: sim.ModeBase, Programs: []string{"gcc"},
			Budget: p.Budget, Warmup: p.Warmup, Config: pipeline.DefaultConfig(),
		})
		if err != nil {
			b.Fatal(err)
		}
		rs, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		ipc = rs.LogicalIPC[0]
		cycles = rs.Cycles
	}
	b.ReportMetric(ipc, "IPC")
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkFig6_SRT regenerates Figure 6: single logical thread under
// Base2 / SRT / SRT+ptSQ / SRT+noSC.
func BenchmarkFig6_SRT(b *testing.B) { benchExperiment(b, exp.Fig6) }

// BenchmarkFig7_PSR regenerates Figure 7: preferential space redundancy.
func BenchmarkFig7_PSR(b *testing.B) { benchExperiment(b, exp.Fig7) }

// BenchmarkFig8_SRT2 regenerates the two-logical-thread SRT figure.
func BenchmarkFig8_SRT2(b *testing.B) { benchExperiment(b, exp.Fig8) }

// BenchmarkFig9_StoreLifetime regenerates the store-queue pressure figure.
func BenchmarkFig9_StoreLifetime(b *testing.B) { benchExperiment(b, exp.Fig9) }

// BenchmarkFig10_Lock_CRT1 regenerates lockstep-vs-CRT, one logical thread.
func BenchmarkFig10_Lock_CRT1(b *testing.B) { benchExperiment(b, exp.Fig10) }

// BenchmarkFig11_Lock_CRT2 regenerates lockstep-vs-CRT, two logical threads.
func BenchmarkFig11_Lock_CRT2(b *testing.B) { benchExperiment(b, exp.Fig11) }

// BenchmarkFig12_Lock_CRT4 regenerates lockstep-vs-CRT, four logical
// threads.
func BenchmarkFig12_Lock_CRT4(b *testing.B) { benchExperiment(b, exp.Fig12) }

// BenchmarkCoverage_Faults regenerates the fault-injection campaigns.
func BenchmarkCoverage_Faults(b *testing.B) { benchExperiment(b, exp.Coverage) }

// BenchmarkCampaign_ForkOnFault measures one serial fault-injection
// campaign per paired mode: 96 trials on compress over a doubled cycle
// budget (a from-scratch engine's cost scales with run length × trials;
// the fork engine pays the run once, so a campaign-sized workload is where
// the design shows). The golden run is simulated once with periodic state
// checkpoints; each trial restores the checkpoint before its injection and
// replays only the suffix, exiting early when its state rejoins the golden
// run bytewise or, under SRTR, when it rolls back to a checkpoint taken
// before its fault fired.
func BenchmarkCampaign_ForkOnFault(b *testing.B) {
	p := benchParams(b)
	for _, mode := range []sim.Mode{sim.ModeSRT, sim.ModeCRT, sim.ModeSRTR, sim.ModeAdaptive} {
		b.Run(mode.String(), func(b *testing.B) {
			spec := sim.Spec{
				Mode: mode, Programs: []string{"compress"},
				Budget: 2 * p.Budget, Warmup: p.Warmup,
				Config: pipeline.DefaultConfig(), PSR: true,
			}
			if mode == sim.ModeAdaptive {
				spec.AdaptiveThreshold = 0.5
			}
			var total uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum, err := fault.Campaign(spec, 96, 0xC0FFEE, runner.Options{Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				total = sum.TotalCycles
			}
			b.ReportMetric(float64(total), "simcycles")
		})
	}
}

// BenchmarkFunctionalCampaignReplay measures the batched functional
// execution engine on the campaign-replay shape: 64 trials of one
// generated kernel, each lane armed with its own planned transient, run as
// one SoA vm.Batch with predecoded handler tables. The functional engine's
// unit of work is executed instructions; they are reported as the
// simcycles metric and as KIPS.
func BenchmarkFunctionalCampaignReplay(b *testing.B) {
	const lanes = 64
	k := progen.Generate(progen.CorpusSeeds(0xC0FFEE, 1)[0])
	spec := sim.Spec{
		Programs: []string{progen.Name(k.Seed)},
		Warmup:   k.MaxDynInstr / 4, Budget: k.MaxDynInstr,
	}
	hooks := make([]vm.CorruptFunc, lanes)
	for i, f := range fault.Plan(spec, lanes, 0xBEEF) {
		f := f
		hooks[i] = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
			if point == f.Point && seq == f.AtSeq {
				return v ^ (1 << (f.Bit & 63))
			}
			return v
		}
	}
	maxRounds := 4*k.MaxDynInstr + 64
	var executed uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem := vm.NewMemory()
		vm.Load(k.Prog, mem)
		bt := vm.NewBatch(k.Prog, mem, lanes)
		bt.Tolerant = true
		copy(bt.Corrupt, hooks)
		bt.Run(maxRounds)
		for lane := 0; lane < lanes; lane++ {
			executed += bt.Seq[lane]
		}
	}
	b.ReportMetric(float64(executed)/float64(b.N), "simcycles")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(executed)/secs/1000, "KIPS")
	}
}

// BenchmarkCorpusBatchReplay measures the corpus-verification shape
// behind the metamorphic and differential batteries: fault-free functional
// replay of 64 lanes each of 8 fixed-corpus kernels, run as one SoA
// vm.Batch per kernel with no Observer — the column fast path, where live
// lanes bucket by PC and each distinct PC costs one handler call.
// Reported like BenchmarkFunctionalCampaignReplay.
func BenchmarkCorpusBatchReplay(b *testing.B) {
	const lanes = 64
	seeds := progen.CorpusSeeds(0xC0FFEE, 8)
	kernels := make([]*progen.Kernel, len(seeds))
	for i, s := range seeds {
		kernels[i] = progen.Generate(s)
	}
	var executed uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			mem := vm.NewMemory()
			vm.Load(k.Prog, mem)
			bt := vm.NewBatch(k.Prog, mem, lanes)
			bt.Tolerant = true
			bt.Run(4*k.MaxDynInstr + 64)
			for lane := 0; lane < lanes; lane++ {
				executed += bt.Seq[lane]
			}
		}
	}
	b.ReportMetric(float64(executed)/float64(b.N), "simcycles")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(executed)/secs/1000, "KIPS")
	}
}

// BenchmarkProgenCharacterize measures corpus characterisation — the full
// functional replay behind every generated kernel's profile — on the
// scalar engine (progen.Characterize, one vm.Thread per kernel). Executed
// instructions are reported as simcycles and KIPS as in
// BenchmarkFunctionalCampaignReplay.
func BenchmarkProgenCharacterize(b *testing.B) {
	seeds := progen.CorpusSeeds(0xC0FFEE, 16)
	kernels := make([]*progen.Kernel, len(seeds))
	for i, s := range seeds {
		kernels[i] = progen.Generate(s)
	}
	var perIter uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perIter = 0
		for _, k := range kernels {
			p, err := progen.Characterize(k)
			if err != nil {
				b.Fatal(err)
			}
			perIter += p.DynInstrs
		}
	}
	b.ReportMetric(float64(perIter), "simcycles")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(perIter)*float64(b.N)/secs/1000, "KIPS")
	}
}

// --- ablation benches (design choices from DESIGN.md §5) ---

// ablationEff runs spec at p's sizes and returns its SMT-Efficiency
// against reference runs of its programs on the default base machine.
func ablationEff(b *testing.B, p exp.Params, spec sim.Spec, cycles *uint64) float64 {
	ipcs, err := rmt.BaseIPC(context.Background(), spec.Programs, rmt.WithBudget(p.Budget), rmt.WithWarmup(p.Warmup))
	if err != nil {
		b.Fatal(err)
	}
	base := make([]float64, len(spec.Programs))
	for i, name := range spec.Programs {
		base[i] = ipcs[name]
	}
	spec.Budget = p.Budget
	spec.Warmup = p.Warmup
	if spec.Config.RetireWidth == 0 {
		spec.Config = p.Config
	}
	m, err := sim.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	*cycles += rs.Cycles
	return stats.SMTEfficiency(rs.LogicalIPC, base)
}

// BenchmarkAblation_SlackFetch compares the paper's LPQ-priority trailing
// fetch policy with the original SRT slack-fetch mechanism (the paper found
// the LPQ's inherent delay subsumes slack fetch).
func BenchmarkAblation_SlackFetch(b *testing.B) {
	p := benchParams(b)
	var lpq, slack float64
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles = 0
		lpq = ablationEff(b, p, sim.Spec{Mode: sim.ModeSRT, PSR: true, Programs: []string{"gcc"}}, &cycles)
		slack = ablationEff(b, p, sim.Spec{Mode: sim.ModeSRT, PSR: true, SlackFetch: 64, Programs: []string{"gcc"}}, &cycles)
	}
	b.ReportMetric(lpq, "eff-lpq-priority")
	b.ReportMetric(slack, "eff-slack-64")
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkAblation_LVQDepth sweeps the load value queue size: too shallow
// an LVQ throttles the leading thread's retirement.
func BenchmarkAblation_LVQDepth(b *testing.B) {
	p := benchParams(b)
	effs := map[int]float64{}
	sizes := []int{8, 16, 64}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, sz := range sizes {
			cfg := p.Config
			cfg.LVQSize = sz
			effs[sz] = ablationEff(b, p, sim.Spec{
				Mode: sim.ModeSRT, PSR: true, Programs: []string{"li"}, Config: cfg,
			}, &cycles)
		}
	}
	b.ReportMetric(effs[8], "eff-lvq8")
	b.ReportMetric(effs[16], "eff-lvq16")
	b.ReportMetric(effs[64], "eff-lvq64")
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkAblation_CRTForwardLatency checks CRT's robustness to the
// cross-core datapath latency: the decoupling queues keep it off the
// critical path (contrast with the checker latency, which lockstepping
// pays on every cache miss).
func BenchmarkAblation_CRTForwardLatency(b *testing.B) {
	p := benchParams(b)
	var crt float64
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles = 0
		crt = ablationEff(b, p, sim.Spec{Mode: sim.ModeCRT, PSR: true, Programs: []string{"gcc", "swim"}}, &cycles)
	}
	b.ReportMetric(crt, "eff-crt-4cycle")
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkSimulatorThroughput measures raw simulation speed over a mixed
// 4-thread workload: simulated instructions per iteration, plus the two
// headline throughput rates — simulated cycles per wall-clock second and
// thousands of committed instructions per wall-clock second (KIPS).
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := benchParams(b)
	var simulated, cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.Build(sim.Spec{
			Mode: sim.ModeBase, Programs: []string{"gcc", "go", "swim", "fpppp"},
			Budget: p.Budget, Warmup: p.Warmup, Config: pipeline.DefaultConfig(),
		})
		if err != nil {
			b.Fatal(err)
		}
		rs, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		simulated += rs.TotalCommitted()
		cycles += rs.Cycles
	}
	b.ReportMetric(float64(simulated)/float64(b.N), "instructions/op")
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cycles)/secs, "cycles/sec")
		b.ReportMetric(float64(simulated)/secs/1000, "KIPS")
	}
}
