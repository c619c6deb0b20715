package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// parallelism is the worker count inside every workload and the
	// GOMAXPROCS every run sets: the benchmark loads at most two threads.
	parallelism = 2
	// defaultSeed is the seed whose digests testdata/digests.json records.
	defaultSeed = 1
)

// workloads in the order a round runs them.
var workloads = []*workload{figures, campaign, serve, corpus}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmtperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload (figures, campaign, serve, corpus) in this process; empty runs each in a child process")
		seed     = fs.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 20, "measured seconds per run")
		trace    = fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run; 0 the end-to-end metrics")
		traceDir = fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes <workload>/spans.json, cpu.pprof and traces.txt")
		runs     = fs.Int("runs", 1, "rounds of every workload, alternating their order, each in child processes")
		jsonOut  = fs.String("json", "", "write every run's results to this file (for -compare)")
		compare  = fs.Bool("compare", false, "compare two -json files given as arguments: A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "rmtperf: want -seconds >= 1, -trace 0 or 1, -runs >= 1 and no arguments")
		return 2
	}
	runtime.GOMAXPROCS(parallelism)
	cfg := runConfig{
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, traceDir: *traceDir, setups: 5,
	}
	if *name == "" {
		return runChildren(cfg, *runs, *jsonOut, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "rmtperf: unknown workload %q (have figures, campaign, serve, corpus)\n", *name)
		return 2
	}
	res, err := w.run(newRecorder(cfg, stdout, stderr))
	if err != nil {
		fmt.Fprintf(stderr, "rmtperf: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "rmtperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
