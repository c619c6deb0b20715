// Package exp drives the paper's evaluation: one function per table/figure,
// each returning a text table with the same rows and series the paper
// reports. cmd/rmtbench and the repository's benchmarks call these.
//
// Every figure declares its sweep as a flat job list — one independent
// (kernel, configuration) simulation per job — and hands it to
// internal/runner, which fans each distinct simulation, base-machine
// reference runs included, across Params.Parallelism worker goroutines,
// each rebuilding one machine in place from simulation to simulation.
// Results are keyed by job index, so tables are assembled in declaration
// order and the output is byte-identical at any parallelism.
//
// Figure/table numbering follows DESIGN.md's experiment index. The paper's
// published numbers (where the supplied text states them) are embedded in
// the table titles for side-by-side comparison; EXPERIMENTS.md records a
// full paper-vs-measured discussion.
package exp

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/rmt"
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

	// Options is the run policy every sweep and campaign of the
	// experiment hands to internal/runner: parallelism (results are
	// independent of it), per-sweep progress, timing reports and
	// cancellation.
	runner.Options
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

// job is one simulation in a figure's sweep. Figures that sweep machine
// configuration (Fig9's store-queue sizes) carry a per-job Params.
type job struct {
	p    Params
	spec sim.Spec
}

// result is one simulation's outcome: its run stats, the readings the
// figures take from its machine, recorded before the machine is rebuilt
// for another simulation, and the job's SMT-Efficiency.
type result struct {
	rs *stats.RunStats
	// sameHalf and sameFU are the first pair's fractions of corresponding
	// instructions that shared an issue-queue half and a functional unit
	// (Fig7).
	sameHalf, sameFU float64
	// storeLife is the first measured copy's mean store-queue lifetime
	// (Fig9).
	storeLife float64
	// protected is the first pair's protected fraction of static
	// instruction sites (FigAdaptive).
	protected float64

	eff float64
}

// machines is one sweep's stack of idle machines. A simulation takes one,
// or a zero machine when none is idle, rebuilds it for its spec, and puts
// it back once it has recorded its readings, so a sweep holds at most one
// machine per worker and each reuses its caches' lines and predictor
// tables from one simulation to the next.
type machines struct {
	mu   sync.Mutex
	idle []*sim.Machine
}

func (ms *machines) take() *sim.Machine {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	n := len(ms.idle)
	if n == 0 {
		return new(sim.Machine)
	}
	m := ms.idle[n-1]
	ms.idle = ms.idle[:n-1]
	return m
}

func (ms *machines) put(m *sim.Machine) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.idle = append(ms.idle, m)
}

// run executes one simulation, spec at its own budget, warmup and machine
// configuration, on a machine from ms. A machine whose build or run failed
// is dropped rather than put back.
func (ms *machines) run(spec sim.Spec) (result, error) {
	m := ms.take()
	if err := m.Rebuild(spec); err != nil {
		return result{}, err
	}
	rs, err := m.Run()
	if err != nil {
		return result{}, fmt.Errorf("exp: %v %v: %w", spec.Mode, spec.Programs, err)
	}
	r := result{rs: rs, storeLife: m.Leads[0].Stats.StoreLifetime.Value()}
	if len(m.Pairs) > 0 {
		pair := m.Pairs[0]
		r.sameHalf, r.sameFU = pair.SameHalfFrac(), pair.SameFUFrac()
		r.protected = protectedFrac(pair)
	}
	ms.put(m)
	return r, nil
}

// sweep fans jobs across the worker pool and returns results keyed by job
// index, so callers assemble tables in declaration order regardless of
// completion order.
//
// Each distinct simulation runs once per sweep: jobs whose specs are equal
// at equal budget, warmup and machine configuration share one run and its
// result. A job's SMT-Efficiency divides by its programs' IPCs alone on
// the base machine at the figure's standard Params p, even when the job's
// own Params differ. Those reference runs go through the same lookup, so a
// declared job that is one serves as it, and the rest are ordinary runs of
// the same pool, each scheduled just before the first job that reads it.
// Scheduled all first, they would run on a near-empty heap, where each
// one's garbage triggers a collection: 16 instead of 6 for a Fig6 at
// budget and warmup 300, which then took a fifth longer.
func sweep(p Params, jobs []job) ([]result, error) {
	var ms machines
	var fns []func() (result, error)
	// runs maps each distinct simulation to its index in fns. A Spec holds
	// a slice and cannot key a map itself; printed with %+v it lists every
	// field, each float exactly.
	runs := map[string]int{}
	schedule := func(jp Params, spec sim.Spec) int {
		spec.Budget, spec.Warmup, spec.Config = jp.Budget, jp.Warmup, jp.Config
		key := fmt.Sprintf("%+v", spec)
		if i, ok := runs[key]; ok {
			return i
		}
		runs[key] = len(fns)
		fns = append(fns, func() (result, error) { return ms.run(spec) })
		return len(fns) - 1
	}
	at := make([]int, len(jobs))     // each job's run
	refs := make([][]int, len(jobs)) // the reference run of each of its programs
	for i, j := range jobs {
		for _, name := range j.spec.Programs {
			refs[i] = append(refs[i], schedule(p, referenceSpec(name)))
		}
		at[i] = schedule(j.p, j.spec)
	}
	out, _, err := runner.Run(fns, p.Options)
	if err != nil {
		return nil, err
	}
	res := make([]result, len(jobs))
	for i, j := range jobs {
		base := make([]float64, len(refs[i]))
		for k, ref := range refs[i] {
			base[k] = sim.ModeBase.ProgramIPC(out[ref].rs, 0)
		}
		res[i] = out[at[i]]
		res[i].eff = stats.SMTEfficiency(j.spec.Mode.ProgramIPCs(res[i].rs, len(base)), base)
	}
	return res, nil
}

// referenceSpec is the reference run of program name: the program alone
// on the base machine.
func referenceSpec(name string) sim.Spec {
	return sim.Spec{Mode: sim.ModeBase, Programs: []string{name}}
}

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
	add("IBOX", "fetch width", fmt.Sprintf("%d x %d-instruction chunks per cycle (same thread)", cfg.FetchChunks, rmt.ChunkSize))
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

// column is one series of an efficiency table: its header, the key its
// mean takes in the summary, and the spec each row's programs run under.
type column struct {
	header, key string
	spec        sim.Spec
}

// effTable runs every row's programs under every column's spec and
// tabulates the mean SMT-Efficiencies: one line per row, labelled by its
// programs joined with "+", then a MEAN line whose values the summary holds
// under the columns' keys.
func effTable(p Params, title, rowHeader string, rows [][]string, cols []column) (*stats.Table, map[string]float64, error) {
	t := &stats.Table{Title: title, Columns: []string{rowHeader}}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.header)
	}
	t.Grow(len(rows) + 1)
	var jobs []job
	for _, progs := range rows {
		for _, c := range cols {
			spec := c.spec
			spec.Programs = progs
			jobs = append(jobs, job{p, spec})
		}
	}
	res, err := sweep(p, jobs)
	if err != nil {
		return nil, nil, err
	}
	perCol := make([][]float64, len(cols))
	for ri, progs := range rows {
		effs := make([]float64, len(cols))
		for ci := range cols {
			effs[ci] = res[ri*len(cols)+ci].eff
			perCol[ci] = append(perCol[ci], effs[ci])
		}
		t.AddRowf(strings.Join(progs, "+"), effs...)
	}
	summary := map[string]float64{"simcycles": sumCycles(res)}
	means := make([]float64, len(cols))
	for ci, c := range cols {
		means[ci] = stats.ArithMean(perCol[ci])
		summary[c.key] = means[ci]
	}
	t.AddRowf("MEAN", means...)
	return t, summary, nil
}

// singles makes each program a workload of its own.
func singles(names []string) [][]string {
	rows := make([][]string, len(names))
	for i, n := range names {
		rows[i] = []string{n}
	}
	return rows
}

// pairs lists the paper's two-program workloads.
func pairs() [][]string {
	prs := program.MultiprogramPairs()
	rows := make([][]string, len(prs))
	for i := range prs {
		rows[i] = prs[i][:]
	}
	return rows
}

// Fig6 reproduces Figure 6: SMT-Efficiency of one logical thread under
// Base2, SRT, SRT with per-thread store queues, and SRT without store
// comparison, across the 18-kernel suite. Paper: SRT degrades 32% on
// average; per-thread store queues reduce it to 30%.
func Fig6(p Params) (*stats.Table, map[string]float64, error) {
	return effTable(p, "Figure 6: SMT-Efficiency, one logical thread (paper: SRT avg 0.68, SRT+ptSQ avg 0.70)",
		"program", singles(program.Names()), []column{
			{"Base2", "Base2", sim.Spec{Mode: sim.ModeBase2}},
			{"SRT", "SRT", sim.Spec{Mode: sim.ModeSRT, PSR: true}},
			{"SRT+ptSQ", "SRT+ptSQ", sim.Spec{Mode: sim.ModeSRT, PSR: true, PerThreadSQ: true}},
			{"SRT+noSC", "SRT+noSC", sim.Spec{Mode: sim.ModeSRT, PSR: true, NoStoreComparison: true}},
		})
}

// Fig7 reproduces Figure 7: the fraction of corresponding instruction pairs
// sharing an issue-queue half / functional unit, with and without
// preferential space redundancy. Paper: 65% same functional unit without
// PSR, 0.06% with, at no performance cost.
func Fig7(p Params) (*stats.Table, map[string]float64, error) {
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
	res, err := sweep(p, jobs)
	if err != nil {
		return nil, nil, err
	}
	var aggHalfOff, aggFUOff, aggHalfOn, aggFUOn, effOff, effOn []float64
	for ni, name := range names {
		var halves, fus, effs [2]float64
		for i := range psrs {
			r := res[ni*len(psrs)+i]
			halves[i] = r.sameHalf
			fus[i] = r.sameFU
			effs[i] = r.eff
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
	return effTable(p, "Figure 8: SMT-Efficiency, two logical threads under SRT (paper: avg 0.60, ptSQ 0.68)",
		"pair", pairs(), []column{
			{"Base(2 threads)", "base2t", sim.Spec{Mode: sim.ModeBase}},
			{"SRT", "srt", sim.Spec{Mode: sim.ModeSRT, PSR: true}},
			{"SRT+ptSQ", "ptsq", sim.Spec{Mode: sim.ModeSRT, PSR: true, PerThreadSQ: true}},
		})
}

// Fig9 reproduces the store-queue pressure analysis: average leading-store
// store-queue lifetime versus the base machine (paper: +39 cycles), and
// SMT-Efficiency across store-queue sizes.
func Fig9(p Params) (*stats.Table, map[string]float64, error) {
	t := &stats.Table{
		Title:   "Figure 9: store-queue lifetime and size sensitivity (paper: SRT adds ~39 cycles)",
		Columns: []string{"program", "base life", "SRT life", "delta", "eff SQ=32", "eff SQ=48", "eff SQ=64", "eff ptSQ"},
	}
	names := program.Names()
	t.Grow(len(names) + 1)
	sqSizes := []int{32, 48, 64}
	// base, SRT, SQ sweep..., ptSQ. The base job is its kernel's reference
	// run, and at Table 1's 64-entry store queue the SQ=32 job is its SRT
	// job: each shares that run (sweep).
	perName := 3 + len(sqSizes)
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
			jobs = append(jobs, job{pp, sim.Spec{Mode: sim.ModeSRT, PSR: true, Programs: progs}})
		}
		jobs = append(jobs, job{p, sim.Spec{Mode: sim.ModeSRT, PSR: true, PerThreadSQ: true, Programs: progs}})
	}
	res, err := sweep(p, jobs)
	if err != nil {
		return nil, nil, err
	}
	var deltas []float64
	effSums := map[int][]float64{32: nil, 48: nil, 64: nil, -1: nil}
	for ni, name := range names {
		row := res[ni*perName : (ni+1)*perName]
		baseLife := row[0].storeLife
		srtLife := row[1].storeLife
		delta := srtLife - baseLife
		deltas = append(deltas, delta)

		cells := []string{name, fmt.Sprintf("%.1f", baseLife), fmt.Sprintf("%.1f", srtLife), fmt.Sprintf("%+.1f", delta)}
		for si, sq := range sqSizes {
			e := row[2+si].eff
			effSums[sq] = append(effSums[sq], e)
			cells = append(cells, fmt.Sprintf("%.3f", e))
		}
		e := row[perName-1].eff
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

// lockCRT lists the columns of Figures 10-12: Lock0, Lock8, CRT and
// CRT+ptSQ.
func lockCRT() []column {
	return []column{
		{"Lock0", "lock0", sim.Spec{Mode: sim.ModeLockstep, CheckerLatency: 0}},
		{"Lock8", "lock8", sim.Spec{Mode: sim.ModeLockstep, CheckerLatency: 8}},
		{"CRT", "crt", sim.Spec{Mode: sim.ModeCRT, PSR: true}},
		{"CRT+ptSQ", "crt+ptsq", sim.Spec{Mode: sim.ModeCRT, PSR: true, PerThreadSQ: true}},
	}
}

// Fig10 compares lockstepping and CRT for single-program workloads. Paper:
// CRT performs similarly to lockstepping on one logical thread.
func Fig10(p Params) (*stats.Table, map[string]float64, error) {
	return effTable(p, "Figure 10: lockstep vs CRT, one logical thread (paper: similar)",
		"workload", singles(program.Names()), lockCRT())
}

// Fig11 compares lockstepping and CRT on the six two-program pairs. Paper:
// CRT outperforms lockstepping by 13% on average (max 22%).
func Fig11(p Params) (*stats.Table, map[string]float64, error) {
	return effTable(p, "Figure 11: lockstep vs CRT, two logical threads (paper: CRT +13% avg, +22% max)",
		"workload", pairs(), lockCRT())
}

// Fig12 compares lockstepping and CRT on the four-program combinations.
func Fig12(p Params) (*stats.Table, map[string]float64, error) {
	combos := program.FourProgramCombos()
	rows := make([][]string, len(combos))
	for i := range combos {
		rows[i] = combos[i][:]
	}
	return effTable(p, "Figure 12: lockstep vs CRT, four logical threads", "workload", rows, lockCRT())
}

// campaign runs n fault-injection trials of spec's mode and programs at
// half p's budget and warmup, on p's machine with PSR, under p's run
// policy. Every campaign-bearing figure sizes its campaigns this way.
func campaign(p Params, spec sim.Spec, n int, seed uint64) (*fault.CampaignSummary, error) {
	spec.Budget, spec.Warmup, spec.Config, spec.PSR = p.Budget/2, p.Warmup/2, p.Config, true
	return fault.Campaign(spec, n, seed, p.Options)
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
		var pool fault.CampaignSummary
		var lat []float64
		for _, k := range kernels {
			sum, err := campaign(p, sim.Spec{Mode: mode, Programs: []string{k}},
				p.CampaignRuns/len(kernels)+1, 0xABCD^uint64(len(k)))
			if err != nil {
				return nil, nil, err
			}
			pool.Add(sum)
			if sum.Detected > 0 {
				lat = append(lat, sum.MeanDetectionCycles)
			}
		}
		simCycles += float64(pool.TotalCycles)
		cov := pool.Coverage()
		meanLat := stats.ArithMean(lat)
		t.AddRow(mode.String(), fmt.Sprint(pool.Runs), fmt.Sprint(pool.Detected), fmt.Sprint(pool.Masked),
			fmt.Sprint(pool.NotFired), fmt.Sprintf("%.3f", cov), fmt.Sprintf("%.0f", meanLat))
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
			sum, err := campaign(p, sim.Spec{Mode: sim.ModeSRTR, Programs: []string{k}, CheckpointInterval: iv},
				runs, 0xBADC0DE^iv^uint64(len(k)))
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

// protectedFrac is the fraction of static instruction sites the pair's
// adaptive protection table keeps inside the sphere of replication (1.0
// when the table is nil: θ <= 0 protects everything, bit-identical to
// SRT).
func protectedFrac(pair *rmt.Pair) float64 {
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
	res, err := sweep(p, jobs)
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
			prot = append(prot, r.protected)
			effs = append(effs, r.eff)
		}
		var pool fault.CampaignSummary
		for _, k := range kernels {
			sum, err := campaign(p, sim.Spec{Mode: sim.ModeAdaptive, Programs: []string{k}, AdaptiveThreshold: th},
				runsPer, 0xADA^uint64(ti*31+len(k)))
			if err != nil {
				return nil, nil, err
			}
			pool.Add(sum)
		}
		simCycles += float64(pool.TotalCycles)
		cov := pool.Coverage()
		tag := fmt.Sprintf("t%02.0f", th*100)
		summary["protected."+tag] = stats.ArithMean(prot)
		summary["eff."+tag] = stats.ArithMean(effs)
		summary["coverage."+tag] = cov
		summary["sdc."+tag] = float64(pool.UnprotectedSDC)
		t.AddRow(fmt.Sprintf("%.2f", th),
			fmt.Sprintf("%.3f", summary["protected."+tag]),
			fmt.Sprintf("%.3f", summary["eff."+tag]),
			fmt.Sprint(pool.Runs), fmt.Sprint(pool.Detected), fmt.Sprint(pool.Masked), fmt.Sprint(pool.UnprotectedSDC),
			fmt.Sprintf("%.3f", cov))
	}
	summary["simcycles"] = simCycles
	return t, summary, nil
}
