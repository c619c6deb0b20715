// Command rmtbench regenerates the paper's evaluation: every table and
// figure in DESIGN.md's experiment index. Independent simulations are
// fanned across worker goroutines (-parallel); tables are assembled in
// declaration order, so stdout is byte-identical at any parallelism.
// Progress and timing go to stderr.
//
// Usage:
//
//	rmtbench                  # run everything at full size
//	rmtbench -exp fig6,fig11  # selected experiments
//	rmtbench -quick           # cut-down sizes (smoke)
//	rmtbench -parallel 1      # serial execution (same output)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/rmt"
)

// experimentJSON renders one experiment's results as a machine-readable
// artifact: the table plus the summary scalars. encoding/json sorts map
// keys, so the bytes are deterministic (and parallelism-independent, since
// tables are assembled in declaration order).
func experimentJSON(id string, budget, warmup uint64, tbl *rmt.Table, summary map[string]float64) []byte {
	doc := struct {
		ID      string             `json:"id"`
		Budget  uint64             `json:"budget"`
		Warmup  uint64             `json:"warmup"`
		Title   string             `json:"title"`
		Columns []string           `json:"columns"`
		Rows    [][]string         `json:"rows"`
		Summary map[string]float64 `json:"summary"`
	}{id, budget, warmup, tbl.Title(), tbl.Columns(), tbl.Rows(), summary}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		panic(err) // strings and floats only: cannot fail
	}
	return append(out, '\n')
}

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids (table1,fig6,...,fig12,coverage)")
		csvDir     = flag.String("csv", "", "also write each experiment's table as <dir>/<id>.csv")
		metricsDir = flag.String("metrics-dir", "", "also write each experiment's table and summary as <dir>/<id>.json")
	)
	sf := cliflags.RegisterSim(flag.CommandLine)
	pf := cliflags.RegisterProf(flag.CommandLine)
	flag.Parse()
	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmtbench: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rmtbench: %v\n", err)
			os.Exit(1)
		}
	}()

	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rmtbench: %v\n", err)
			os.Exit(1)
		}
	}

	base := []rmt.Option{rmt.WithParallelism(sf.Parallel)}
	if sf.Quick {
		base = append(base, rmt.WithQuick())
	}
	if sf.Budget > 0 {
		base = append(base, rmt.WithBudget(sf.Budget))
	}
	if sf.Warmup > 0 {
		base = append(base, rmt.WithWarmup(sf.Warmup))
	}
	budget, warmup := rmt.ExperimentSizes(base...)

	known := map[string]bool{"all": true, "table1": true}
	for _, e := range rmt.Experiments() {
		known[e.ID] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*expFlag, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			ids := make([]string, 0, len(known))
			for k := range known {
				ids = append(ids, k)
			}
			sort.Strings(ids)
			fmt.Fprintf(os.Stderr, "rmtbench: unknown experiment %q (have %s)\n", id, strings.Join(ids, ", "))
			os.Exit(2)
		}
		want[id] = true
	}
	all := want["all"]

	if all || want["table1"] {
		fmt.Println(rmt.Table1())
	}
	for _, e := range rmt.Experiments() {
		if !all && !want[e.ID] {
			continue
		}
		fmt.Printf("--- %s: %s (budget=%d warmup=%d) ---\n", e.ID, e.Description, budget, warmup)

		// Progress and the parallel-speedup report are diagnostics: they
		// depend on wall-clock timing, so they go to stderr and stdout
		// stays byte-identical across -parallel values.
		var agg rmt.Report
		opts := append([]rmt.Option{}, base...)
		opts = append(opts,
			rmt.WithProgress(func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d simulations", e.ID, done, total)
			}),
			rmt.WithReport(func(r rmt.Report) {
				agg.Jobs += r.Jobs
				agg.Wall += r.Wall
				agg.Busy += r.Busy
				if r.Parallelism > agg.Parallelism {
					agg.Parallelism = r.Parallelism
				}
			}))
		start := time.Now() //rmtlint:allow determinism — stderr-only wall-clock reporting; stdout stays byte-identical
		tbl, summary, err := e.Run(opts...)
		if agg.Jobs > 0 {
			fmt.Fprintf(os.Stderr, "\r%s: %d simulations in %v (busy %v, speedup %.2fx, parallelism %d)\n",
				e.ID, agg.Jobs, time.Since(start).Round(time.Millisecond),
				agg.Busy.Round(time.Millisecond), agg.Speedup(), agg.Parallelism)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmtbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tbl)
		keys := make([]string, 0, len(summary))
		for k := range summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("summary %s.%s = %.4f\n", e.ID, k, summary[k])
		}
		fmt.Println()
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "rmtbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *metricsDir != "" {
			path := filepath.Join(*metricsDir, e.ID+".json")
			if err := os.WriteFile(path, experimentJSON(e.ID, budget, warmup, tbl, summary), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "rmtbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
