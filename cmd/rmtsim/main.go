// Command rmtsim runs one workload on one machine configuration and prints
// detailed statistics: IPC, SMT-Efficiency against the base machine,
// prediction and cache rates, queue pressure, and RMT structure activity.
// The base-machine reference runs are independent, so -parallel fans them
// across workers.
//
// Usage:
//
//	rmtsim -mode srt -progs gcc                 # one redundant pair
//	rmtsim -mode crt -progs gcc,swim            # cross-coupled CMP
//	rmtsim -mode lockstep -checker 8 -progs gcc # Lock8
//	rmtsim -list                                # show the workload suite
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliflags"
	"repro/internal/pipeline" //rmtlint:allow layering — per-run pipeline Config knobs, not yet exposed via the facade
	"repro/internal/program"  //rmtlint:allow layering — kernel descriptions for -list
	"repro/internal/sim"      //rmtlint:allow layering — single-run machine introspection beyond the facade Result
	"repro/internal/stats"    //rmtlint:allow layering — prints the full RunStats breakdown
	"repro/internal/trace"    //rmtlint:allow layering — cycle-trace writer is a debugging tool, not facade API
	"repro/rmt"
)

func main() {
	var (
		modeFlag  = flag.String("mode", "base", fmt.Sprintf("machine, one of %v", rmt.Modes()))
		progsFlag = flag.String("progs", "gcc", "comma-separated workload kernels")
		ptsq      = flag.Bool("ptsq", false, "per-thread store queues")
		psr       = flag.Bool("psr", true, "preferential space redundancy")
		nosc      = flag.Bool("nosc", false, "disable store output comparison")
		checker   = flag.Uint64("checker", 8, "lockstep checker latency (cycles)")
		slack     = flag.Uint64("slack", 0, "slack-fetch instruction count (0 = LPQ priority)")
		list      = flag.Bool("list", false, "list the workload suite and exit")
		noRel     = flag.Bool("norel", false, "skip the base-machine reference runs")
		traceN    = flag.Int("trace", 0, "dump a pipeline diagram of the first N instructions core 0 retires")
		metricsF  = flag.String("metrics", "", "write the end-of-run metrics snapshot (JSON) to this file")
		traceF    = flag.String("trace-json", "", "write the structured event trace (Chrome trace_event JSON, Perfetto-loadable) to this file")
	)
	sf := cliflags.RegisterSim(flag.CommandLine)
	pf := cliflags.RegisterProf(flag.CommandLine)
	flag.Parse()
	stopProf, err := pf.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	if *list {
		for _, n := range program.Names() {
			info, _ := program.Get(n)
			fmt.Printf("%-10s %-4s %s\n", info.Name, info.Suite, info.Description)
		}
		return
	}

	mode, err := rmt.ParseMode(*modeFlag)
	if err != nil {
		fatal(fmt.Errorf("rmtsim: %w", err))
	}
	budget, warmup := sf.Sizes(50000, 20000, 8000, 5000)
	progs := cliflags.SplitProgs(*progsFlag)

	spec := sim.Spec{
		Mode:              mode,
		Programs:          progs,
		Budget:            budget,
		Warmup:            warmup,
		Config:            pipeline.DefaultConfig(),
		PSR:               *psr,
		PerThreadSQ:       *ptsq,
		NoStoreComparison: *nosc,
		CheckerLatency:    *checker,
		SlackFetch:        *slack,
	}
	m, err := sim.Build(spec)
	if err != nil {
		fatal(err)
	}
	if *metricsF != "" {
		m.EnableMetrics()
	}
	if *traceF != "" || *traceN > 0 {
		l := m.EnableTrace(0)
		if *traceF == "" {
			l.KeepFirst(*traceN)
		}
	}
	rs, err := m.Run()
	if err != nil {
		fatal(err)
	}
	if *traceF != "" {
		if err := writeTo(*traceF, m.Events.WriteChromeJSON); err != nil {
			fatal(err)
		}
	}
	if m.Metrics != nil {
		if err := writeTo(*metricsF, m.Metrics.Snapshot(rs.Cycles).WriteJSON); err != nil {
			fatal(err)
		}
	}
	if *traceN > 0 {
		fmt.Println("pipeline trace (F fetch, D dispatch, I issue, C complete, X retire):")
		fmt.Print(trace.Format(m.Events.Events(), *traceN))
		fmt.Println()
	}

	fmt.Printf("mode=%v programs=%v warmup=%d budget=%d cycles=%d\n\n", mode, progs, warmup, budget, rs.Cycles)

	// base holds each program's reference IPC, nil under -norel.
	var base []float64
	if !*noRel {
		// The per-program reference runs are independent simulations;
		// fan them across the worker pool through the public facade.
		ipcs, err := rmt.BaseIPC(context.Background(), progs,
			rmt.WithBudget(budget), rmt.WithWarmup(warmup),
			rmt.WithParallelism(sf.Parallel))
		if err != nil {
			fatal(err)
		}
		for _, name := range progs {
			base = append(base, ipcs[name])
		}
	}

	tbl := &stats.Table{
		Title:   "per-logical-thread results",
		Columns: []string{"program", "IPC", "SMT-eff", "brMiss%", "lineMiss%", "I$miss", "D$miss", "sqStall", "storeLife"},
	}
	for i, name := range progs {
		lead := m.Leads[i]
		ts := lead.Stats
		ipc := mode.ProgramIPC(rs, i)
		eff := 0.0
		if base != nil {
			eff = stats.SMTEfficiency([]float64{ipc}, base[i:i+1])
		}
		tbl.AddRow(name,
			fmt.Sprintf("%.3f", ipc),
			fmt.Sprintf("%.3f", eff),
			fmt.Sprintf("%.1f", 100*ts.BranchMispredictRate()),
			fmt.Sprintf("%.1f", 100*ts.LineMispredictRate()),
			fmt.Sprint(ts.ICacheMisses.Value()),
			fmt.Sprint(ts.DCacheMisses.Value()),
			fmt.Sprint(ts.SQFullStalls.Value()),
			fmt.Sprintf("%.1f", ts.StoreLifetime.Value()),
		)
	}
	fmt.Println(tbl)
	if base != nil {
		fmt.Printf("mean SMT-Efficiency: %.3f\n", stats.SMTEfficiency(mode.ProgramIPCs(rs, len(base)), base))
	}

	for _, p := range m.Pairs {
		fmt.Printf("\npair %d (%s): comparisons=%d mismatches=%d lvqPushes=%d lvqWaits=%d lpqPushes=%d forcedTerms=%d sameHalf=%.4f sameFU=%.4f\n",
			p.LogicalID, progs[p.LogicalID],
			p.Cmp.Comparisons.Value(), p.Cmp.Mismatches.Value(),
			p.LVQ.Pushes.Value(), p.LVQ.Waits.Value(),
			p.LPQ.Pushes.Value(), p.Agg.ForcedTerminations.Value(),
			p.SameHalfFrac(), p.SameFUFrac())
	}

	for ci, co := range m.Cores {
		h := co.Hierarchy()
		fmt.Printf("\ncore %d caches: l1i miss %.3f%% (%d/%d)  l1d miss %.3f%%  l2 miss %.3f%%\n",
			ci,
			100*h.L1I.MissRate(), h.L1I.Misses.Value(), h.L1I.Hits.Value()+h.L1I.Misses.Value(),
			100*h.L1D.MissRate(), 100*h.L2.MissRate())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// writeTo creates path and streams write into it.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
