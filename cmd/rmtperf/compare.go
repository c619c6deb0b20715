package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runRecord is one child run as -json stores it.
type runRecord struct {
	Workload  string             `json:"workload"`
	Round     int                `json:"round"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Counts    map[string]float64 `json:"counts,omitempty"`
	Digest    string             `json:"digest,omitempty"`
}

// runFile is what -json writes and -compare reads.
type runFile struct {
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Traced  bool        `json:"traced"`
	Runs    []runRecord `json:"runs"`
}

// runChildren runs every workload in its own child process, rounds times,
// reversing the order on odd rounds so no workload always runs first, then
// prints each metric's median and quartiles.
func runChildren(cfg runConfig, rounds int, jsonOut string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "rmtperf: %v\n", err)
		return 1
	}
	file := runFile{Seed: cfg.seed, Seconds: cfg.window.Seconds(), Traced: cfg.traced}
	status := 0
	for round := 0; round < rounds; round++ {
		for i := range workloads {
			w := workloads[i]
			if round%2 == 1 {
				w = workloads[len(workloads)-1-i]
			}
			rec, err := runChild(self, w.name, round, cfg, stdout, stderr)
			if err != nil {
				// Keep the crashed run in the file as a failed one, so
				// -compare sees it rather than a workload with fewer runs.
				fmt.Fprintf(stderr, "rmtperf: %s round %d: %v\n", w.name, round, err)
				rec = &runRecord{Workload: w.name, Round: round, Attempted: 1, Failed: 1}
			}
			if !rec.Correct {
				status = 1
			}
			file.Runs = append(file.Runs, *rec)
		}
	}
	printSummary(file, stdout)
	if jsonOut != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "rmtperf: %v\n", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process and parses what it
// printed: "count" and "digest" report lines, and the result object on
// the last line.
func runChild(self, name string, round int, cfg runConfig, stdout, stderr io.Writer) (*runRecord, error) {
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.window.Seconds())), "-trace", trace, "-trace-dir", cfg.traceDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	rec := &runRecord{Workload: name, Round: round, Counts: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case len(f) == 3 && f[0] == "count":
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("bad count line %q", line)
			}
			rec.Counts[f[1]] = v
		case len(f) == 2 && f[0] == "digest":
			rec.Digest = f[1]
		case len(f) >= 3 && f[0] == "metric":
			fmt.Fprintf(stdout, "%-9s %s\n", name, strings.TrimPrefix(line, "metric "))
		case strings.HasPrefix(line, "accuracy.") || strings.HasPrefix(line, "serve.slo_met"):
			fmt.Fprintf(stdout, "%-9s %s\n", name, line)
		}
		if line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line (exit: %v)", runErr)
	}
	rec.Correct, rec.Attempted, rec.Failed = res.Correct, res.Attempted, res.Failed
	rec.Metrics = make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		rec.Metrics[k] = v.Value
	}
	return rec, nil
}

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printSummary prints, per workload and metric, the median, the quartiles
// and the spread (interquartile distance over the median).
func printSummary(file runFile, w io.Writer) {
	fmt.Fprintf(w, "\n%-9s %-28s %14s %14s %14s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	for _, wl := range workloads {
		for _, d := range metricDefs(file.Traced) {
			xs := values(file, wl.name, d.Name)
			if len(xs) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-9s %-28s %14.6f %14.6f %14.6f %8.4f  %s\n",
				wl.name, d.Name, median(xs), quantile(xs, 0.25), quantile(xs, 0.75), spread(xs), d.Unit)
		}
	}
}

func values(file runFile, workload, metric string) []float64 {
	var xs []float64
	for _, r := range file.Runs {
		if r.Workload == workload {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
	}
	return xs
}

func runsOf(file runFile, workload string) int {
	n := 0
	for _, r := range file.Runs {
		if r.Workload == workload {
			n++
		}
	}
	return n
}

func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// compareFiles checks B against A: every run of both must have passed its
// checks, B must have at least as many runs of each workload as A, every
// end-to-end metric's median may be worse by at most its bound, and every
// exact count and digest must be identical across all runs of both files.
func compareFiles(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "rmtperf: -compare takes two -json files: A.json B.json")
		return 2
	}
	var files [2]runFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "rmtperf: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := files[0], files[1]
	status := 0
	for i, f := range files {
		for _, r := range f.Runs {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(stdout, "%-9s round %d of %s: FAILED (%d of %d operations and checks failed)\n", r.Workload, r.Round, args[i], r.Failed, r.Attempted)
				status = 1
			}
		}
	}
	fmt.Fprintf(stdout, "%-9s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		if na, nb := runsOf(a, wl.name), runsOf(b, wl.name); na == 0 || nb < na {
			fmt.Fprintf(stdout, "%-9s MISSING runs: %d in A, %d in B\n", wl.name, na, nb)
			status = 1
			continue
		}
		for _, d := range metricDefs(a.Traced) {
			xa, xb := values(a, wl.name, d.Name), values(b, wl.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			if d.Bound > 0 && worse > d.Bound {
				verdict = "REGRESSED"
				status = 1
			}
			fmt.Fprintf(stdout, "%-9s %-28s %14.6f %14.6f %+8.1f%% %6.0f%%  %s\n", wl.name, d.Name, ma, mb, 100*worse, 100*d.Bound, verdict)
		}
		if a.Seed != b.Seed || a.Seconds != b.Seconds {
			continue
		}
		if msg := exactMismatch(wl.name, append(append([]runRecord(nil), a.Runs...), b.Runs...)); msg != "" {
			fmt.Fprintf(stdout, "%-9s exact counts and digests: MISMATCH %s\n", wl.name, msg)
			status = 1
		} else {
			fmt.Fprintf(stdout, "%-9s exact counts and digests: identical\n", wl.name)
		}
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintln(stdout, "exact counts not compared: the files used different seeds or run lengths")
	}
	return status
}

// exactMismatch returns "" when every run of the workload reports the same
// digest and exact counts, else a description of the first difference.
func exactMismatch(workload string, runs []runRecord) string {
	var first *runRecord
	for i := range runs {
		r := &runs[i]
		if r.Workload != workload {
			continue
		}
		if first == nil {
			first = r
			continue
		}
		if r.Digest != first.Digest {
			return fmt.Sprintf("digest %s vs %s", r.Digest, first.Digest)
		}
		for _, k := range exactCounts {
			if r.Counts[k] != first.Counts[k] {
				return fmt.Sprintf("%s %.0f vs %.0f", k, r.Counts[k], first.Counts[k])
			}
		}
	}
	return ""
}
