package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/rmt"
)

// benchmarkJSON is the repository-root BENCHMARK.json, the definition the
// metric tables must match.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command has {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command reports %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the command reports %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
	if bj.RunSeconds != 20 {
		t.Errorf("run_seconds = %d, the command's -seconds default is 20", bj.RunSeconds)
	}
}

// TestWorkloadsSmoke runs every workload in-process at test size, checks
// its outputs, and holds the printed metric lines to BENCHMARK.json's
// names and units.
func TestWorkloadsSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	units := map[string]string{}
	for _, d := range append(bj.EndToEnd, bj.PerLayer...) {
		units[d.Name] = d.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traced := w == corpus // one traced run covers the profile path
			cfg := runConfig{seed: 1, window: time.Second, smoke: true, setups: 1, traced: traced, traceDir: t.TempDir()}
			var out, log bytes.Buffer
			res, err := w.run(newRecorder(cfg, &out, &log))
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("metric %s missing", d.Name)
				case v.Unit != d.Unit:
					t.Errorf("metric %s unit %q, want %q", d.Name, v.Unit, d.Unit)
				case !traced && !(v.Value > 0) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("metric %s = %v, want a positive finite value", d.Name, v.Value)
				}
			}
			printed := 0
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				f := strings.Fields(sc.Text())
				if len(f) == 4 && f[0] == "metric" {
					printed++
					if unit, ok := units[f[1]]; !ok || unit != f[3] {
						t.Errorf("printed metric %s %s is not in BENCHMARK.json with that unit", f[1], f[3])
					}
				}
			}
			if printed != len(defs) {
				t.Errorf("printed %d metric lines, want %d", printed, len(defs))
			}
			if traced && res.Metrics["profile.cpu_s"].Value <= 0 {
				t.Errorf("traced run sampled no CPU time")
			}
		})
	}
}

// TestCompareRejectsBrokenCandidate holds -compare to a non-zero exit when
// the candidate file has a failed run, fewer runs of a workload, or a
// different digest, and to exit 0 on two equal files.
func TestCompareRejectsBrokenCandidate(t *testing.T) {
	good := func() runFile {
		f := runFile{Seed: 1, Seconds: 20}
		for _, w := range workloads {
			for round := 0; round < 2; round++ {
				m := map[string]float64{}
				for _, d := range endToEnd {
					m[d.Name] = 1
				}
				f.Runs = append(f.Runs, runRecord{Workload: w.name, Round: round, Correct: true, Attempted: 3,
					Metrics: m, Counts: map[string]float64{"trials": 5}, Digest: "d"})
			}
		}
		return f
	}
	cases := map[string]func(f *runFile){
		"identical":  func(*runFile) {},
		"failed run": func(f *runFile) { f.Runs[1].Correct, f.Runs[1].Failed = false, 1 },
		"crashed child": func(f *runFile) {
			f.Runs[1] = runRecord{Workload: f.Runs[1].Workload, Round: 1, Attempted: 1, Failed: 1}
		},
		"missing runs": func(f *runFile) { f.Runs = f.Runs[:len(f.Runs)-1] },
		"digest":       func(f *runFile) { f.Runs[0].Digest = "e" },
		"exact count":  func(f *runFile) { f.Runs[0].Counts["trials"] = 6 },
		"regression":   func(f *runFile) { f.Runs[0].Metrics["op_p50_ms"], f.Runs[1].Metrics["op_p50_ms"] = 2, 2 },
	}
	dir := t.TempDir()
	write := func(name string, f runFile) string {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name + ".json"
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a", good())
	for name, mutate := range cases {
		f := good()
		mutate(&f)
		var out, log bytes.Buffer
		code := compareFiles([]string{a, write(strings.ReplaceAll(name, " ", "_"), f)}, &out, &log)
		if want := map[bool]int{true: 0, false: 1}[name == "identical"]; code != want {
			t.Errorf("%s: exit %d, want %d\n%s", name, code, want, out.String())
		}
	}
}

func TestParseTracesFixture(t *testing.T) {
	b, err := os.ReadFile("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseTraces(string(b))
	if err != nil {
		t.Fatal(err)
	}
	wantLayers := map[string]float64{
		"ringq": 0.03, "pipeline.dispatch": 0.02, "snap": 0.01, "json": 0.01, "net": 0.01,
		"gc": 0.02, "other": 0.01, "bench": 0.01, "vm": 0.02, "pipeline.retire": 0.01,
	}
	wantStages := map[string]float64{"issue": 0.03, "dispatch": 0.02, "retire": 0.01}
	near := func(x, y float64) bool { return math.Abs(x-y) < 1e-9 }
	if !near(a.total, 0.15) {
		t.Errorf("total = %v, want 0.15", a.total)
	}
	for _, l := range profileLayers {
		if !near(a.layers[l], wantLayers[l]) {
			t.Errorf("layer %s = %v, want %v", l, a.layers[l], wantLayers[l])
		}
	}
	for _, st := range pipelineStages {
		if !near(a.stages[st], wantStages[st]) {
			t.Errorf("stage %s = %v, want %v", st, a.stages[st], wantStages[st])
		}
	}
	if got := a.attributedShare(); !near(got, 1-0.01/0.15) {
		t.Errorf("attributed share = %v", got)
	}
	for l := range wantLayers {
		if !slices.Contains(profileLayers, l) {
			t.Errorf("fixture layer %s is not a reported layer", l)
		}
	}
}

func TestFiguresGoldenSplits(t *testing.T) {
	chunks := splitFigures(figuresGolden)
	if len(chunks) != len(experimentIDs)+1 {
		t.Fatalf("golden splits into %d chunks, want table1 plus %d experiments", len(chunks), len(experimentIDs))
	}
	if chunks["table1"] != rmt.Table1().String()+"\n" {
		t.Errorf("golden Table 1 differs from rmt.Table1()")
	}
	whole := chunks["table1"]
	for _, id := range experimentIDs {
		whole += chunks[id]
	}
	if whole != figuresGolden {
		t.Errorf("chunks do not reassemble the golden")
	}
}
