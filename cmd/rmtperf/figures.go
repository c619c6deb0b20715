package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/rmt"
)

// figuresGolden is `rmtbench -quick` stdout on the commit that added this
// benchmark: Table 1 and every experiment with its summary lines.
//
//go:embed testdata/figures.golden
var figuresGolden string

// experimentIDs are the paper's experiments in presentation order.
var experimentIDs = func() []string {
	var ids []string
	for _, e := range rmt.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}()

// figuresPass is one pass's time on the reference host (two cores).
const figuresPass = 6 * time.Second

var figures = &workload{
	name: "figures",
	why:  "regenerates every figure and Table 1 at the quick size from the paper's fixed kernels (no seed): the timing pipeline does nearly all the work, no serving",
	setup: func(s *recorder) (*prepared, error) {
		golden := splitFigures(figuresGolden)
		exps := rmt.Experiments()
		opts := []rmt.Option{rmt.WithQuick(), rmt.WithParallelism(parallelism)}
		if s.cfg.smoke {
			exps = exps[:3]
			opts = append(opts, rmt.WithBudget(600), rmt.WithWarmup(400))
		}
		budget, warmup := rmt.ExperimentSizes(opts...)
		// Warm the process (heap, kernel assembly, code pages) on a tiny
		// instance so the first measured experiment does not pay for it.
		if _, _, err := exps[0].Run(rmt.WithBudget(300), rmt.WithWarmup(300), rmt.WithParallelism(parallelism)); err != nil {
			return nil, err
		}
		printed := false
		measure := func(window time.Duration) error {
			start := now()
			var busy, wall time.Duration
			err := passes(window, figuresPass, func(pass int) error {
				var out strings.Builder
				table1 := rmt.Table1().String() + "\n"
				out.WriteString(table1)
				if !s.cfg.smoke {
					s.verify(compareChunk("table1", table1, golden["table1"]))
				}
				var simcycles float64
				summaries := map[string]map[string]float64{}
				for _, e := range exps {
					settle()
					sp := s.begin("exp."+e.ID, 0, 0, 0)
					tbl, summary, err := e.Run(append(opts, rmt.WithReport(func(r rmt.Report) {
						busy += r.Busy
						wall += r.Wall
					}))...)
					d := sp.end()
					if err == nil {
						chunk := renderExperiment(e, budget, warmup, tbl, summary)
						out.WriteString(chunk)
						if !s.cfg.smoke {
							err = compareChunk(e.ID, chunk, golden[e.ID])
						}
						simcycles += summary["simcycles"]
						summaries[e.ID] = summary
					}
					s.op(e.ID, d, err)
				}
				s.addWork(simcycles)
				s.count("sim_cycles", simcycles)
				sum := sha256.Sum256([]byte(out.String()))
				s.setDigest(hex.EncodeToString(sum[:]))
				if !printed {
					printed = true
					printAccuracy(s, summaries)
				}
				return nil
			})
			for _, id := range experimentIDs {
				s.set("exp."+id+".wall_s", s.timer("exp."+id))
			}
			s.set("runner.busy_s", busy.Seconds())
			if wall > 0 {
				s.set("runner.speedup", float64(busy)/float64(wall))
			}
			s.mu.Lock()
			work := s.work
			s.mu.Unlock()
			s.set("sim_mcycles_per_s", work/1e6/time.Since(start).Seconds())
			return err
		}
		return &prepared{measure: measure, close: func() {}}, nil
	},
}

// renderExperiment formats one experiment exactly as cmd/rmtbench prints
// it.
func renderExperiment(e rmt.Experiment, budget, warmup uint64, tbl *rmt.Table, summary map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- %s: %s (budget=%d warmup=%d) ---\n", e.ID, e.Description, budget, warmup)
	b.WriteString(tbl.String() + "\n")
	keys := make([]string, 0, len(summary))
	for k := range summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "summary %s.%s = %.4f\n", e.ID, k, summary[k])
	}
	b.WriteString("\n")
	return b.String()
}

// splitFigures cuts rmtbench output into Table 1 ("table1") and one chunk
// per experiment, keyed by experiment id.
func splitFigures(text string) map[string]string {
	chunks := map[string]string{}
	key := "table1"
	var cur strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		rest, header := strings.CutPrefix(line, "--- ")
		id, _, _ := strings.Cut(rest, ":")
		if header && slices.Contains(experimentIDs, id) {
			chunks[key] = cur.String()
			cur.Reset()
			key = id
		}
		cur.WriteString(line)
	}
	chunks[key] = cur.String()
	return chunks
}

func compareChunk(id, got, want string) error {
	if got == want {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("figures: %s differs from testdata/figures.golden at line %d: got %q, want %q", id, i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("figures: %s differs from testdata/figures.golden in length (%d vs %d lines)", id, len(gl), len(wl))
}

// printAccuracy compares simulated averages with those the paper states.
// The lines are informational: the model has not been validated against
// hardware, and these runs use the quick sizes.
func printAccuracy(s *recorder, sum map[string]map[string]float64) {
	rows := []struct {
		name   string
		exp    string
		value  func(map[string]float64) float64
		paper  float64
		source string
	}{
		{"fig6.srt_eff", "fig6", func(m map[string]float64) float64 { return m["SRT"] }, 0.68, "SRT SMT-efficiency avg"},
		{"fig6.ptsq_eff", "fig6", func(m map[string]float64) float64 { return m["SRT+ptSQ"] }, 0.70, "SRT+ptSQ avg"},
		{"fig7.same_fu_psr", "fig7", func(m map[string]float64) float64 { return m["sameFU.PSR"] }, 0.0006, "same-FU share with PSR"},
		{"fig8.srt_eff", "fig8", func(m map[string]float64) float64 { return m["srt"] }, 0.60, "two threads, SRT avg"},
		{"fig8.ptsq_eff", "fig8", func(m map[string]float64) float64 { return m["ptsq"] }, 0.68, "two threads, SRT+ptSQ avg"},
		{"fig9.sq_lifetime_delta_cycles", "fig9", func(m map[string]float64) float64 { return m["lifetime.delta"] }, 39, "store-queue lifetime added by SRT"},
		{"fig11.crt_gain_vs_lock8", "fig11", func(m map[string]float64) float64 { return m["crt"]/m["lock8"] - 1 }, 0.13, "CRT over lockstep, two threads"},
	}
	for _, r := range rows {
		m, ok := sum[r.exp]
		if !ok {
			continue
		}
		v := r.value(m)
		fmt.Fprintf(s.out, "accuracy.%s simulated=%.4f paper=%.4f diff=%+.4f (%s; informational, not gated: quick-size run of a model unvalidated against hardware)\n",
			r.name, v, r.paper, v-r.paper, r.source)
	}
}
