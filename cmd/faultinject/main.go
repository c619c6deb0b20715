// Command faultinject runs transient fault-injection campaigns against an
// RMT machine and reports detection coverage and latency, or injects one
// precisely-placed fault and narrates the outcome. Campaign trials are
// independent simulations, so -parallel shards them across workers; the
// fault plan is drawn from the seed up front and the report is identical
// at any parallelism.
//
// Usage:
//
//	faultinject -progs compress -n 50            # campaign on SRT
//	faultinject -mode crt -progs gcc,swim -n 20  # campaign on CRT
//	faultinject -mode srtr -progs gcc -n 50      # recovery campaign (SRTR)
//	faultinject -mode adaptive -theta 0.75 -n 50 # partial redundancy
//	faultinject -progs gcc -n 200 -parallel 8    # sharded campaign
//	faultinject -n 50 -server http://host:8471   # campaign on an rmtd daemon
//	faultinject -one -seq 5000 -bit 7 -point storedata -target trailing
//
// Campaigns go through the rmt.Runner seam: in-process by default, or
// against a remote rmtd daemon with -server — same summary either way.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/fault"    //rmtlint:allow layering — single precisely-placed injections (-one) and the campaign-mode predicate are not exposed via the facade
	"repro/internal/pipeline" //rmtlint:allow layering — per-run pipeline Config knobs for -one
	"repro/internal/sim"      //rmtlint:allow layering — builds the -one Spec the facade does not cover
	"repro/internal/vm"       //rmtlint:allow layering — names architectural corruption points for -point
	"repro/rmt"
)

func main() {
	var (
		modeFlag  = flag.String("mode", "srt", "machine: srt, crt, srtr or adaptive")
		progsFlag = flag.String("progs", "compress", "comma-separated workload kernels")
		n         = flag.Int("n", 40, "campaign size")
		seed      = flag.Uint64("seed", 0xC0FFEE, "campaign seed")
		theta     = flag.Float64("theta", 0.5, "adaptive-mode protection threshold θ in [0,1]")

		server = flag.String("server", "", "run the campaign on an rmtd daemon at this base URL instead of in-process")

		one    = flag.Bool("one", false, "inject a single described fault instead of a campaign")
		seq    = flag.Uint64("seq", 8000, "dynamic instruction number for -one")
		bit    = flag.Uint("bit", 0, "bit to flip for -one")
		point  = flag.String("point", "result", "corruption point for -one: result, storedata, storeaddr, loadvalue")
		target = flag.String("target", "leading", "copy to strike for -one: leading or trailing")
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

	mode, err := cliflags.ParseMode(*modeFlag)
	if err != nil {
		fatal(fmt.Errorf("faultinject: %w", err))
	}
	if !fault.CampaignMode(mode) {
		fatal(fmt.Errorf("faultinject: mode must be srt, crt, srtr or adaptive"))
	}
	budget, warmup := sf.Sizes(20000, 5000, 8000, 2000)
	spec := sim.Spec{
		Mode:     mode,
		Programs: cliflags.SplitProgs(*progsFlag),
		Budget:   budget,
		Warmup:   warmup,
		Config:   pipeline.DefaultConfig(),
		PSR:      true,
	}
	if mode == sim.ModeAdaptive {
		spec.AdaptiveThreshold = *theta
	}

	if *one {
		pt, err := parsePoint(*point)
		if err != nil {
			fatal(err)
		}
		tg := fault.LeadingCopy
		if *target == "trailing" {
			tg = fault.TrailingCopy
		}
		f := fault.Transient{Target: tg, AtSeq: *seq, Point: pt, Bit: *bit}
		res, err := fault.RunOne(spec, f)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("injected %v\noutcome: %v\n", f, res.Outcome)
		if res.Outcome == fault.Detected {
			fmt.Printf("detection latency: %d cycles\n", res.DetectionCycles)
		}
		if res.Outcome == fault.Recovered {
			fmt.Printf("rollbacks: %d, re-executed cycles: %d\n", res.Recoveries, res.RecoveryCycles)
		}
		return
	}

	// Campaigns go through the Runner seam so -server swaps the backend
	// without touching the rest of this tool.
	var rn rmt.Runner = rmt.Local{}
	if *server != "" {
		rn = rmt.NewClient(*server)
	}
	rmtMode, err := rmt.ParseMode(*modeFlag)
	if err != nil {
		fatal(fmt.Errorf("faultinject: %w", err))
	}
	cs := rmt.CampaignSpec{
		Spec: rmt.Spec{Mode: rmtMode, Programs: spec.Programs, PSR: true,
			AdaptiveThreshold: spec.AdaptiveThreshold},
		N:    *n,
		Seed: *seed,
	}
	sum, err := rn.Campaign(context.Background(), cs,
		rmt.WithBudget(budget), rmt.WithWarmup(warmup),
		rmt.WithParallelism(sf.Parallelism()),
		rmt.WithProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rtrial %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("campaign: mode=%v progs=%v trials=%d\n", mode, spec.Programs, sum.Runs)
	fmt.Printf("  detected:  %d\n  masked:    %d\n  not fired: %d\n", sum.Detected, sum.Masked, sum.NotFired)
	if sum.Recovered > 0 {
		fmt.Printf("  recovered: %d (mean re-execution %.0f cycles)\n", sum.Recovered, sum.MeanRecoveryCycles)
	}
	if sum.UnprotectedSDC > 0 {
		fmt.Printf("  unprotected SDC: %d\n", sum.UnprotectedSDC)
	}
	fmt.Printf("  coverage of fired faults: %.1f%%\n", 100*sum.Coverage)
	if sum.Detected > 0 {
		fmt.Printf("  mean detection latency:   %.0f cycles\n", sum.MeanDetectionCycles)
	}
	fmt.Println("\nper-trial outcomes:")
	for i, o := range sum.Outcomes {
		fmt.Printf("  trial %d -> %s\n", i, o)
	}
}

func parsePoint(s string) (vm.CorruptPoint, error) {
	switch s {
	case "result":
		return vm.PointResult, nil
	case "storedata":
		return vm.PointStoreData, nil
	case "storeaddr":
		return vm.PointStoreAddr, nil
	case "loadvalue":
		return vm.PointLoadValue, nil
	}
	return 0, fmt.Errorf("faultinject: unknown corruption point %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
