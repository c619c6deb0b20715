// Package exp drives the paper's evaluation: one function per table/figure,
// each returning a text table with the same rows and series the paper
// reports. cmd/rmtbench and the repository's benchmarks call these.
//
// Every figure declares its sweep as a flat job list — one independent
// (kernel, configuration) simulation per job — and hands it to
// internal/runner, which fans the jobs across Params.Parallelism worker
// goroutines. Results are keyed by job index, so tables are assembled in
// declaration order and the output is byte-identical at any parallelism.
//
// Figure/table numbering follows DESIGN.md's experiment index. The paper's
// published numbers (where the supplied text states them) are embedded in
// the table titles for side-by-side comparison; EXPERIMENTS.md records a
// full paper-vs-measured discussion.
package exp

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Params sizes the experiments.
type Params struct {
	// Budget is measured instructions per logical thread; Warmup precedes
	// it.
	Budget uint64
	Warmup uint64
	// CampaignRuns sizes fault-injection campaigns.
	CampaignRuns int
	Config       pipeline.Config

	// Parallelism caps concurrent simulations (0 = GOMAXPROCS). Results
	// are independent of this value; 1 reproduces a serial run exactly.
	Parallelism int
	// Progress, when non-nil, receives per-sweep completion updates
	// (done, total jobs). Calls are serialized.
	Progress func(done, total int)
	// OnReport, when non-nil, receives each sweep's timing report.
	OnReport func(runner.Report)
}

// Full returns the parameters used for the recorded results: large enough
// for steady-state behaviour on every kernel.
func Full() Params {
	return Params{Budget: 50000, Warmup: 50000, CampaignRuns: 40, Config: pipeline.DefaultConfig()}
}

// Quick returns cut-down parameters for tests and -short benchmarks.
func Quick() Params {
	return Params{Budget: 8000, Warmup: 5000, CampaignRuns: 8, Config: pipeline.DefaultConfig()}
}

// baseCache memoises single-thread base IPCs per parameter set. It is safe
// for concurrent use: each kernel's reference run executes at most once
// (single flight) and late arrivals block until the winner's result is
// ready.
type baseCache struct {
	p Params
	// compute produces one kernel's base IPC; tests stub it.
	compute func(name string) (float64, error)

	mu      sync.Mutex
	entries map[string]*baseEntry
}

type baseEntry struct {
	once sync.Once
	ipc  float64
	err  error
}

func newBaseCache(p Params) *baseCache {
	c := &baseCache{p: p, entries: make(map[string]*baseEntry)}
	c.compute = func(name string) (float64, error) {
		got, err := sim.BaseIPC(c.p.Config, c.p.Warmup, c.p.Budget, name)
		if err != nil {
			return 0, err
		}
		return got[name], nil
	}
	return c
}

func (c *baseCache) get(names ...string) (map[string]float64, error) {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		c.mu.Lock()
		e, ok := c.entries[n]
		if !ok {
			e = &baseEntry{}
			c.entries[n] = e
		}
		c.mu.Unlock()
		e.once.Do(func() { e.ipc, e.err = c.compute(n) })
		if e.err != nil {
			return nil, e.err
		}
		out[n] = e.ipc
	}
	return out, nil
}

// run executes one spec and returns per-logical-thread SMT-Efficiencies and
// the run stats.
func run(p Params, spec sim.Spec, cache *baseCache) ([]float64, *stats.RunStats, *sim.Machine, error) {
	spec.Budget = p.Budget
	spec.Warmup = p.Warmup
	spec.Config = p.Config
	m, err := sim.Build(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	rs, err := m.Run()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("exp: %v %v: %w", spec.Mode, spec.Programs, err)
	}
	base, err := cache.get(spec.Programs...)
	if err != nil {
		return nil, nil, nil, err
	}
	effs := make([]float64, len(spec.Programs))
	for i, name := range spec.Programs {
		if base[name] > 0 {
			effs[i] = rs.LogicalIPC[i] / base[name]
		}
	}
	return effs, rs, m, nil
}

// job is one simulation in a figure's sweep. Figures that sweep machine
// configuration (Fig9's store-queue sizes) carry a per-job Params; the
// base-IPC cache stays keyed to the figure's standard parameters.
type job struct {
	p    Params
	spec sim.Spec
}

// result bundles what run() returns for deterministic reassembly.
type result struct {
	effs []float64
	rs   *stats.RunStats
	m    *sim.Machine
}

// sweep fans jobs across the worker pool and returns results keyed by job
// index, so callers assemble tables in declaration order regardless of
// completion order.
func sweep(p Params, jobs []job, cache *baseCache) ([]result, error) {
	fns := make([]func() (result, error), len(jobs))
	for i := range jobs {
		j := jobs[i]
		fns[i] = func() (result, error) {
			effs, rs, m, err := run(j.p, j.spec, cache)
			if err != nil {
				return result{}, err
			}
			return result{effs: effs, rs: rs, m: m}, nil
		}
	}
	out, rep, err := runner.Run(fns, runner.Options{Parallelism: p.Parallelism, Progress: p.Progress})
	if p.OnReport != nil {
		p.OnReport(rep)
	}
	return out, err
}

// meanEff is the arithmetic mean over logical threads — the paper's
// SMT-Efficiency for a run (Snavely-Tullsen weighted speedup).
func meanEff(effs []float64) float64 { return stats.ArithMean(effs) }

// sumCycles totals simulated cycles across a sweep, published in each
// figure's summary under "simcycles" so the benchmark harness can report
// simulator throughput (simulated cycles per wall-clock second).
func sumCycles(res []result) float64 {
	var total uint64
	for _, r := range res {
		total += r.rs.Cycles
	}
	return float64(total)
}

// Table1 prints the base processor parameters (the paper's Table 1), taken
// live from the configuration so the reported machine is the simulated one.
func Table1(cfg pipeline.Config) *stats.Table {
	t := &stats.Table{
		Title:   "Table 1: base processor parameters",
		Columns: []string{"unit", "parameter", "value"},
	}
	add := func(u, p, v string) { t.AddRow(u, p, v) }
	add("IBOX", "fetch width", fmt.Sprintf("%d x %d-instruction chunks per cycle (same thread)", cfg.FetchChunks, cfg.ChunkSize))
	add("IBOX", "line predictor", fmt.Sprintf("%d entries", 1<<cfg.LinePredictorBits))
	add("IBOX", "L1 instruction cache", fmt.Sprintf("%d KB, %d-way, %d B blocks, way prediction", cfg.Hier.L1ISize>>10, cfg.Hier.L1IWays, cfg.Hier.BlockBytes))
	add("IBOX", "branch predictor", fmt.Sprintf("hybrid, 3 x %d x 2-bit tables (~%d Kbit)", 1<<cfg.BranchPredictorBits, 3*(1<<cfg.BranchPredictorBits)*2/1024))
	add("IBOX", "memory dependence predictor", fmt.Sprintf("store sets, %d entries", 1<<cfg.StoreSetBits))
	add("IBOX", "rate matching buffer", fmt.Sprintf("%d instructions per thread", cfg.RMBCap))
	add("PBOX", "map width", fmt.Sprintf("one %d-instruction chunk per cycle (same thread)", cfg.MapWidth))
	add("QBOX", "instruction queue", fmt.Sprintf("%d entries in two %d-entry halves", 2*cfg.IQHalfCap, cfg.IQHalfCap))
	add("QBOX", "issue width", fmt.Sprintf("%d per cycle (%d per half)", 2*cfg.IssuePerHalf, cfg.IssuePerHalf))
	add("RBOX", "register file", fmt.Sprintf("%d in-flight renames (512 physical - 256 architectural)", cfg.InFlightCap))
	add("EBOX/FBOX", "functional units", fmt.Sprintf("8 integer, %d FP, %d memory ports", cfg.MaxFPPerCycle, cfg.MaxMemPerCycle))
	add("MBOX", "L1 data cache", fmt.Sprintf("%d KB, %d-way, %d B blocks, %d load / %d store ports", cfg.Hier.L1DSize>>10, cfg.Hier.L1DWays, cfg.Hier.BlockBytes, cfg.MaxLoadsPerCycle, cfg.MaxStoresPerCycle))
	add("MBOX", "load queue", fmt.Sprintf("%d entries (statically divided)", cfg.LQCap))
	add("MBOX", "store queue", fmt.Sprintf("%d entries (statically divided)", cfg.SQCap))
	add("MBOX", "coalescing merge buffer", fmt.Sprintf("%d blocks", cfg.MergeBufEntries))
	add("system", "L2 cache", fmt.Sprintf("%d MB, %d-way, %d-cycle", cfg.Hier.L2Size>>20, cfg.Hier.L2Ways, cfg.Hier.L2Latency))
	add("system", "memory", fmt.Sprintf("%d-cycle flat latency", cfg.Hier.MemLatency))
	add("pipeline", "stage latencies", fmt.Sprintf("I=%d P=%d Q=%d R=%d E=1 M=%d", pipeline.IBOXLatency, pipeline.PBOXLatency, pipeline.QBOXLatency, pipeline.RBOXLatency, pipeline.MBOXLatency))
	return t
}

// Fig6 reproduces Figure 6: SMT-Efficiency of one logical thread under
// Base2, SRT, SRT with per-thread store queues, and SRT without store
// comparison, across the 18-kernel suite. Paper: SRT degrades 32% on
// average; per-thread store queues reduce it to 30%.
func Fig6(p Params) (*stats.Table, map[string]float64, error) {
	cache := newBaseCache(p)
	t := &stats.Table{
		Title:   "Figure 6: SMT-Efficiency, one logical thread (paper: SRT avg 0.68, SRT+ptSQ avg 0.70)",
		Columns: []string{"program", "Base2", "SRT", "SRT+ptSQ", "SRT+noSC"},
	}
	configs := []struct {
		name string
		spec sim.Spec
	}{
		{"Base2", sim.Spec{Mode: sim.ModeBase2}},
		{"SRT", sim.Spec{Mode: sim.ModeSRT, PSR: true}},
		{"SRT+ptSQ", sim.Spec{Mode: sim.ModeSRT, PSR: true, PerThreadSQ: true}},
		{"SRT+noSC", sim.Spec{Mode: sim.ModeSRT, PSR: true, NoStoreComparison: true}},
	}
	names := program.Names()
	t.Grow(len(names) + 1)
	// Job list: names x configs, row-major.
	var jobs []job
	for _, name := range names {
		for _, c := range configs {
			spec := c.spec
			spec.Programs = []string{name}
			jobs = append(jobs, job{p, spec})
		}
	}
	res, err := sweep(p, jobs, cache)
	if err != nil {
		return nil, nil, err
	}
	sums := map[string][]float64{}
	for ni, name := range names {
		row := []string{name}
		for ci, c := range configs {
			e := meanEff(res[ni*len(configs)+ci].effs)
			sums[c.name] = append(sums[c.name], e)
			row = append(row, fmt.Sprintf("%.3f", e))
		}
		t.AddRow(row...)
	}
	summary := map[string]float64{}
	mrow := []string{"MEAN"}
	for _, c := range configs {
		mean := stats.ArithMean(sums[c.name])
		summary[c.name] = mean
		mrow = append(mrow, fmt.Sprintf("%.3f", mean))
	}
	t.AddRow(mrow...)
	summary["simcycles"] = sumCycles(res)
	return t, summary, nil
}

// Fig7 reproduces Figure 7: the fraction of corresponding instruction pairs
// sharing an issue-queue half / functional unit, with and without
// preferential space redundancy. Paper: 65% same functional unit without
// PSR, 0.06% with, at no performance cost.
func Fig7(p Params) (*stats.Table, map[string]float64, error) {
	cache := newBaseCache(p)
	t := &stats.Table{
		Title:   "Figure 7: space redundancy (paper: same-FU 65% -> 0.06%, no slowdown)",
		Columns: []string{"program", "sameHalf noPSR", "sameFU noPSR", "sameHalf PSR", "sameFU PSR", "eff noPSR", "eff PSR"},
	}
	names := program.Names()
	t.Grow(len(names) + 1)
	psrs := []bool{false, true}
	var jobs []job
	for _, name := range names {
		for _, psr := range psrs {
			jobs = append(jobs, job{p, sim.Spec{Mode: sim.ModeSRT, PSR: psr, Programs: []string{name}}})
		}
	}
	res, err := sweep(p, jobs, cache)
	if err != nil {
		return nil, nil, err
	}
	var aggHalfOff, aggFUOff, aggHalfOn, aggFUOn, effOff, effOn []float64
	for ni, name := range names {
		var halves, fus, effs [2]float64
		for i := range psrs {
			r := res[ni*len(psrs)+i]
			pair := r.m.Pairs[0]
			halves[i] = pair.SameHalfFrac()
			fus[i] = pair.SameFUFrac()
			effs[i] = meanEff(r.effs)
		}
		aggHalfOff = append(aggHalfOff, halves[0])
		aggFUOff = append(aggFUOff, fus[0])
		aggHalfOn = append(aggHalfOn, halves[1])
		aggFUOn = append(aggFUOn, fus[1])
		effOff = append(effOff, effs[0])
		effOn = append(effOn, effs[1])
		t.AddRow(name,
			fmt.Sprintf("%.3f", halves[0]), fmt.Sprintf("%.3f", fus[0]),
			fmt.Sprintf("%.4f", halves[1]), fmt.Sprintf("%.4f", fus[1]),
			fmt.Sprintf("%.3f", effs[0]), fmt.Sprintf("%.3f", effs[1]))
	}
	summary := map[string]float64{
		"sameHalf.noPSR": stats.ArithMean(aggHalfOff),
		"sameFU.noPSR":   stats.ArithMean(aggFUOff),
		"sameHalf.PSR":   stats.ArithMean(aggHalfOn),
		"sameFU.PSR":     stats.ArithMean(aggFUOn),
		"eff.noPSR":      stats.ArithMean(effOff),
		"eff.PSR":        stats.ArithMean(effOn),
		"simcycles":      sumCycles(res),
	}
	t.AddRow("MEAN",
		fmt.Sprintf("%.3f", summary["sameHalf.noPSR"]), fmt.Sprintf("%.3f", summary["sameFU.noPSR"]),
		fmt.Sprintf("%.4f", summary["sameHalf.PSR"]), fmt.Sprintf("%.4f", summary["sameFU.PSR"]),
		fmt.Sprintf("%.3f", summary["eff.noPSR"]), fmt.Sprintf("%.3f", summary["eff.PSR"]))
	return t, summary, nil
}

// Fig8 reproduces the two-logical-thread SRT experiment (four hardware
// contexts). Paper: ~40% degradation, ~32% with per-thread store queues.
func Fig8(p Params) (*stats.Table, map[string]float64, error) {
	cache := newBaseCache(p)
	t := &stats.Table{
		Title:   "Figure 8: SMT-Efficiency, two logical threads under SRT (paper: avg 0.60, ptSQ 0.68)",
		Columns: []string{"pair", "Base(2 threads)", "SRT", "SRT+ptSQ"},
	}
	pairs := program.MultiprogramPairs()
	t.Grow(len(pairs) + 1)
	var jobs []job
	for _, pr := range pairs {
		progs := []string{pr[0], pr[1]}
		jobs = append(jobs,
			job{p, sim.Spec{Mode: sim.ModeBase, Programs: progs}},
			job{p, sim.Spec{Mode: sim.ModeSRT, PSR: true, Programs: progs}},
			job{p, sim.Spec{Mode: sim.ModeSRT, PSR: true, PerThreadSQ: true, Programs: progs}})
	}
	res, err := sweep(p, jobs, cache)
	if err != nil {
		return nil, nil, err
	}
	var b, s, sp []float64
	for pi, pr := range pairs {
		be := meanEff(res[pi*3].effs)
		se := meanEff(res[pi*3+1].effs)
		pe := meanEff(res[pi*3+2].effs)
		b = append(b, be)
		s = append(s, se)
		sp = append(sp, pe)
		t.AddRowf(pr[0]+"+"+pr[1], be, se, pe)
	}
	summary := map[string]float64{
		"base2t":    stats.ArithMean(b),
		"srt":       stats.ArithMean(s),
		"ptsq":      stats.ArithMean(sp),
		"simcycles": sumCycles(res),
	}
	t.AddRowf("MEAN", summary["base2t"], summary["srt"], summary["ptsq"])
	return t, summary, nil
}

// Fig9 reproduces the store-queue pressure analysis: average leading-store
// store-queue lifetime versus the base machine (paper: +39 cycles), and
// SMT-Efficiency across store-queue sizes.
func Fig9(p Params) (*stats.Table, map[string]float64, error) {
	cache := newBaseCache(p)
	t := &stats.Table{
		Title:   "Figure 9: store-queue lifetime and size sensitivity (paper: SRT adds ~39 cycles)",
		Columns: []string{"program", "base life", "SRT life", "delta", "eff SQ=32", "eff SQ=48", "eff SQ=64", "eff ptSQ"},
	}
	names := program.Names()
	t.Grow(len(names) + 1)
	sqSizes := []int{32, 48, 64}
	perName := 3 + len(sqSizes) // base, SRT, SQ sweep..., ptSQ
	var jobs []job
	for _, name := range names {
		progs := []string{name}
		jobs = append(jobs,
			job{p, sim.Spec{Mode: sim.ModeBase, Programs: progs}},
			job{p, sim.Spec{Mode: sim.ModeSRT, PSR: true, Programs: progs}})
		for _, sq := range sqSizes {
			cfg := p.Config
			cfg.SQCap = sq * 2 // statically divided between the two contexts
			pp := p
			pp.Config = cfg
			// The base reference must stay the standard machine: the
			// shared cache is keyed to the figure's standard Params.
			jobs = append(jobs, job{pp, sim.Spec{Mode: sim.ModeSRT, PSR: true, Programs: progs}})
		}
		jobs = append(jobs, job{p, sim.Spec{Mode: sim.ModeSRT, PSR: true, PerThreadSQ: true, Programs: progs}})
	}
	res, err := sweep(p, jobs, cache)
	if err != nil {
		return nil, nil, err
	}
	var deltas []float64
	effSums := map[int][]float64{32: nil, 48: nil, 64: nil, -1: nil}
	for ni, name := range names {
		row := res[ni*perName : (ni+1)*perName]
		baseLife := row[0].m.Leads[0].Stats.StoreLifetime.Value()
		srtLife := row[1].m.Leads[0].Stats.StoreLifetime.Value()
		delta := srtLife - baseLife
		deltas = append(deltas, delta)

		cells := []string{name, fmt.Sprintf("%.1f", baseLife), fmt.Sprintf("%.1f", srtLife), fmt.Sprintf("%+.1f", delta)}
		for si, sq := range sqSizes {
			e := meanEff(row[2+si].effs)
			effSums[sq] = append(effSums[sq], e)
			cells = append(cells, fmt.Sprintf("%.3f", e))
		}
		e := meanEff(row[perName-1].effs)
		effSums[-1] = append(effSums[-1], e)
		cells = append(cells, fmt.Sprintf("%.3f", e))
		t.AddRow(cells...)
	}
	summary := map[string]float64{
		"lifetime.delta": stats.ArithMean(deltas),
		"eff.sq32":       stats.ArithMean(effSums[32]),
		"eff.sq48":       stats.ArithMean(effSums[48]),
		"eff.sq64":       stats.ArithMean(effSums[64]),
		"eff.ptsq":       stats.ArithMean(effSums[-1]),
		"simcycles":      sumCycles(res),
	}
	t.AddRow("MEAN", "", "", fmt.Sprintf("%+.1f", summary["lifetime.delta"]),
		fmt.Sprintf("%.3f", summary["eff.sq32"]), fmt.Sprintf("%.3f", summary["eff.sq48"]),
		fmt.Sprintf("%.3f", summary["eff.sq64"]), fmt.Sprintf("%.3f", summary["eff.ptsq"]))
	return t, summary, nil
}

// lockCRTTable runs Lock0/Lock8/CRT/CRT+ptSQ over workload groups.
func lockCRTTable(p Params, title string, groups [][]string) (*stats.Table, map[string]float64, error) {
	cache := newBaseCache(p)
	t := &stats.Table{
		Title:   title,
		Columns: []string{"workload", "Lock0", "Lock8", "CRT", "CRT+ptSQ"},
	}
	const perGroup = 4
	t.Grow(len(groups) + 1)
	var jobs []job
	for _, progs := range groups {
		jobs = append(jobs,
			job{p, sim.Spec{Mode: sim.ModeLockstep, CheckerLatency: 0, Programs: progs}},
			job{p, sim.Spec{Mode: sim.ModeLockstep, CheckerLatency: 8, Programs: progs}},
			job{p, sim.Spec{Mode: sim.ModeCRT, PSR: true, Programs: progs}},
			job{p, sim.Spec{Mode: sim.ModeCRT, PSR: true, PerThreadSQ: true, Programs: progs}})
	}
	res, err := sweep(p, jobs, cache)
	if err != nil {
		return nil, nil, err
	}
	var l0s, l8s, cs, cps []float64
	for gi, progs := range groups {
		label := ""
		for i, n := range progs {
			if i > 0 {
				label += "+"
			}
			label += n
		}
		l0 := meanEff(res[gi*perGroup].effs)
		l8 := meanEff(res[gi*perGroup+1].effs)
		c := meanEff(res[gi*perGroup+2].effs)
		cp := meanEff(res[gi*perGroup+3].effs)
		l0s = append(l0s, l0)
		l8s = append(l8s, l8)
		cs = append(cs, c)
		cps = append(cps, cp)
		t.AddRowf(label, l0, l8, c, cp)
	}
	summary := map[string]float64{
		"lock0":     stats.ArithMean(l0s),
		"lock8":     stats.ArithMean(l8s),
		"crt":       stats.ArithMean(cs),
		"crt+ptsq":  stats.ArithMean(cps),
		"simcycles": sumCycles(res),
	}
	t.AddRowf("MEAN", summary["lock0"], summary["lock8"], summary["crt"], summary["crt+ptsq"])
	return t, summary, nil
}

// Fig10 compares lockstepping and CRT for single-program workloads. Paper:
// CRT performs similarly to lockstepping on one logical thread.
func Fig10(p Params) (*stats.Table, map[string]float64, error) {
	var groups [][]string
	for _, n := range program.Names() {
		groups = append(groups, []string{n})
	}
	return lockCRTTable(p, "Figure 10: lockstep vs CRT, one logical thread (paper: similar)", groups)
}

// Fig11 compares lockstepping and CRT on the six two-program pairs. Paper:
// CRT outperforms lockstepping by 13% on average (max 22%).
func Fig11(p Params) (*stats.Table, map[string]float64, error) {
	var groups [][]string
	for _, pr := range program.MultiprogramPairs() {
		groups = append(groups, []string{pr[0], pr[1]})
	}
	return lockCRTTable(p, "Figure 11: lockstep vs CRT, two logical threads (paper: CRT +13% avg, +22% max)", groups)
}

// Fig12 compares lockstepping and CRT on the four-program combinations.
func Fig12(p Params) (*stats.Table, map[string]float64, error) {
	var groups [][]string
	for _, c := range program.FourProgramCombos() {
		groups = append(groups, []string{c[0], c[1], c[2], c[3]})
	}
	return lockCRTTable(p, "Figure 12: lockstep vs CRT, four logical threads", groups)
}

// Coverage runs transient fault-injection campaigns on SRT and CRT and
// reports detection coverage plus the permanent-fault space-redundancy
// measurements (no unmasked fault may escape output comparison). Campaigns
// are the longest-running sweep in the evaluation, so each one shards its
// injection trials across Params.Parallelism workers; the fault plan is
// drawn from the seed before any trial runs, so the outcome counts are
// identical at any parallelism.
func Coverage(p Params) (*stats.Table, map[string]float64, error) {
	t := &stats.Table{
		Title:   "Coverage: transient injection campaigns + permanent-fault space redundancy",
		Columns: []string{"config", "runs", "detected", "masked", "not-fired", "coverage", "mean latency (cyc)"},
	}
	kernels := []string{"gcc", "compress", "li", "swim", "wave5", "m88ksim"}
	summary := map[string]float64{}
	var simCycles float64
	for _, mode := range []sim.Mode{sim.ModeSRT, sim.ModeCRT} {
		var det, msk, nf, runs int
		var lat []float64
		for _, k := range kernels {
			spec := sim.Spec{
				Mode: mode, Programs: []string{k},
				Budget: p.Budget / 2, Warmup: p.Warmup / 2,
				Config: p.Config, PSR: true,
			}
			sum, err := fault.Campaign(spec, p.CampaignRuns/len(kernels)+1, 0xABCD^uint64(len(k)),
				fault.CampaignOptions{Parallelism: p.Parallelism, Progress: p.Progress, OnReport: p.OnReport})
			if err != nil {
				return nil, nil, err
			}
			det += sum.Detected
			msk += sum.Masked
			nf += sum.NotFired
			runs += sum.Runs
			simCycles += float64(sum.TotalCycles)
			if sum.Detected > 0 {
				lat = append(lat, sum.MeanDetectionCycles)
			}
		}
		cov := float64(det) / float64(max(det+msk, 1))
		meanLat := stats.ArithMean(lat)
		t.AddRow(mode.String(), fmt.Sprint(runs), fmt.Sprint(det), fmt.Sprint(msk),
			fmt.Sprint(nf), fmt.Sprintf("%.3f", cov), fmt.Sprintf("%.0f", meanLat))
		summary["coverage."+mode.String()] = cov
		summary["latency."+mode.String()] = meanLat
	}
	summary["simcycles"] = simCycles
	return t, summary, nil
}

// FigRecovery sweeps the SRTR checkpoint interval across recovery
// campaigns on three kernels. Every detected transient rolls back to the
// newest validated checkpoint and re-executes the suffix, so the mean
// re-executed cycles — the recovery latency — tracks the interval, while
// coverage stays at SRT's detection coverage (no detected fault may end
// the run unrecovered). Campaigns shard across Params.Parallelism; the
// plan is drawn from the seed up front, so the table is byte-identical at
// any parallelism.
func FigRecovery(p Params) (*stats.Table, map[string]float64, error) {
	intervals := []uint64{256, 512, 1024}
	kernels := []string{"compress", "li", "vortex"}
	cols := []string{"program"}
	for _, iv := range intervals {
		cols = append(cols, fmt.Sprintf("cov I=%d", iv), fmt.Sprintf("rlat I=%d", iv))
	}
	t := &stats.Table{
		Title:   "Recovery: SRTR coverage and rollback re-execution vs checkpoint interval",
		Columns: cols,
	}
	t.Grow(len(kernels) + 1)
	runs := p.CampaignRuns/len(kernels) + 1
	covSums := map[uint64][]float64{}
	latSums := map[uint64][]float64{}
	var recovered, unrecovered int
	var simCycles float64
	for _, k := range kernels {
		row := []string{k}
		for _, iv := range intervals {
			spec := sim.Spec{
				Mode: sim.ModeSRTR, Programs: []string{k},
				Budget: p.Budget / 2, Warmup: p.Warmup / 2,
				Config: p.Config, PSR: true,
				CheckpointInterval: iv,
			}
			sum, err := fault.Campaign(spec, runs, 0xBADC0DE^iv^uint64(len(k)),
				fault.CampaignOptions{Parallelism: p.Parallelism, Progress: p.Progress, OnReport: p.OnReport})
			if err != nil {
				return nil, nil, err
			}
			recovered += sum.Recovered
			unrecovered += sum.Detected // SRTR must leave nothing merely detected
			simCycles += float64(sum.TotalCycles)
			cov := sum.Coverage()
			covSums[iv] = append(covSums[iv], cov)
			if sum.Recovered > 0 {
				latSums[iv] = append(latSums[iv], sum.MeanRecoveryCycles)
			}
			row = append(row, fmt.Sprintf("%.3f", cov), fmt.Sprintf("%.0f", sum.MeanRecoveryCycles))
		}
		t.AddRow(row...)
	}
	summary := map[string]float64{
		"recovered":   float64(recovered),
		"unrecovered": float64(unrecovered),
		"simcycles":   simCycles,
	}
	mrow := []string{"MEAN"}
	for _, iv := range intervals {
		cov := stats.ArithMean(covSums[iv])
		lat := stats.ArithMean(latSums[iv])
		summary[fmt.Sprintf("coverage.i%d", iv)] = cov
		summary[fmt.Sprintf("rlat.i%d", iv)] = lat
		mrow = append(mrow, fmt.Sprintf("%.3f", cov), fmt.Sprintf("%.0f", lat))
	}
	t.AddRow(mrow...)
	return t, summary, nil
}

// protectedFrac is the fraction of static instruction sites the adaptive
// protection table keeps inside the sphere of replication (1.0 when the
// table is nil: θ <= 0 protects everything, bit-identical to SRT).
func protectedFrac(m *sim.Machine) float64 {
	pair := m.Pairs[0]
	if len(pair.Protect) == 0 {
		return 1
	}
	n := 0
	for _, on := range pair.Protect {
		if on {
			n++
		}
	}
	return float64(n) / float64(len(pair.Protect))
}

// FigAdaptive maps the coverage/protection frontier of adaptive partial
// redundancy: as θ rises, the protected fraction of static sites falls,
// faults striking unprotected regions escape as silent data corruption,
// and campaign coverage decays from SRT's. Each θ row aggregates three
// kernels: a fault-free run (SMT-Efficiency and the protection table) plus
// an injection campaign classifying detected / masked / unprotected-SDC.
func FigAdaptive(p Params) (*stats.Table, map[string]float64, error) {
	cache := newBaseCache(p)
	thetas := []float64{0, 0.25, 0.5, 0.75, 0.95}
	kernels := []string{"gcc", "compress", "li"}
	t := &stats.Table{
		Title:   "Adaptive: partial-redundancy frontier (protection, efficiency, campaign coverage vs theta)",
		Columns: []string{"theta", "protected", "eff", "runs", "detected", "masked", "sdc", "coverage"},
	}
	t.Grow(len(thetas))
	var jobs []job
	for _, th := range thetas {
		for _, k := range kernels {
			jobs = append(jobs, job{p, sim.Spec{
				Mode: sim.ModeAdaptive, AdaptiveThreshold: th,
				PSR: true, Programs: []string{k},
			}})
		}
	}
	res, err := sweep(p, jobs, cache)
	if err != nil {
		return nil, nil, err
	}
	runsPer := p.CampaignRuns/len(kernels) + 1
	summary := map[string]float64{}
	simCycles := sumCycles(res)
	for ti, th := range thetas {
		var prot, effs []float64
		for ki := range kernels {
			r := res[ti*len(kernels)+ki]
			prot = append(prot, protectedFrac(r.m))
			effs = append(effs, meanEff(r.effs))
		}
		var det, msk, sdc, runs int
		for _, k := range kernels {
			spec := sim.Spec{
				Mode: sim.ModeAdaptive, Programs: []string{k},
				Budget: p.Budget / 2, Warmup: p.Warmup / 2,
				Config: p.Config, PSR: true,
				AdaptiveThreshold: th,
			}
			sum, err := fault.Campaign(spec, runsPer, 0xADA^uint64(ti*31+len(k)),
				fault.CampaignOptions{Parallelism: p.Parallelism, Progress: p.Progress, OnReport: p.OnReport})
			if err != nil {
				return nil, nil, err
			}
			det += sum.Detected
			msk += sum.Masked
			sdc += sum.UnprotectedSDC
			runs += sum.Runs
			simCycles += float64(sum.TotalCycles)
		}
		cov := float64(det) / float64(max(det+msk+sdc, 1))
		tag := fmt.Sprintf("t%02.0f", th*100)
		summary["protected."+tag] = stats.ArithMean(prot)
		summary["eff."+tag] = stats.ArithMean(effs)
		summary["coverage."+tag] = cov
		summary["sdc."+tag] = float64(sdc)
		t.AddRow(fmt.Sprintf("%.2f", th),
			fmt.Sprintf("%.3f", summary["protected."+tag]),
			fmt.Sprintf("%.3f", summary["eff."+tag]),
			fmt.Sprint(runs), fmt.Sprint(det), fmt.Sprint(msk), fmt.Sprint(sdc),
			fmt.Sprintf("%.3f", cov))
	}
	summary["simcycles"] = simCycles
	return t, summary, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
