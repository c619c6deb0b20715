package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenParams is deliberately tiny: the goldens pin the exact rendered
// tables for a fixed parameter set, so any behavioural drift in the pipeline,
// the kernels, or the table renderer shows up as a diff. Results are
// independent of Parallelism, so the default (GOMAXPROCS) is fine.
func goldenParams() Params {
	return Params{Budget: 1200, Warmup: 600, Config: pipeline.DefaultConfig()}
}

// goldenCampaignParams sizes the campaign-bearing goldens (coverage,
// recovery, adaptive). Campaigns run at half the stated budget, so these land each
// trial on the 2500/800 sizes the fault batteries prove recovery at.
func goldenCampaignParams() Params {
	return Params{Budget: 5000, Warmup: 1600, CampaignRuns: 6, Config: pipeline.DefaultConfig()}
}

// render produces the canonical golden text: the table followed by the
// summary map in sorted key order.
func render(tbl *stats.Table, summary map[string]float64) string {
	var b strings.Builder
	b.WriteString(tbl.String())
	if !strings.HasSuffix(tbl.String(), "\n") {
		b.WriteString("\n")
	}
	keys := make([]string, 0, len(summary))
	for k := range summary {
		if k == "simcycles" {
			// Benchmark-harness bookkeeping (the throughput denominator),
			// not a modeled result: keep the goldens pinned to the model.
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("summary:\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s = %.6f\n", k, summary[k])
	}
	return b.String()
}

func checkGolden(t *testing.T, id string, got string) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/exp -run TestGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			id, path, got, want)
	}
}

// TestGoldenFigures locks the rendered figure tables against recorded
// goldens. These are the tables cmd/rmtbench prints; a diff here means either
// a deliberate model change (regenerate with -update and review the diff) or
// an accidental regression.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("golden figure sweep skipped in -short mode")
	}
	figs := []struct {
		id  string
		p   Params
		run func(Params) (*stats.Table, map[string]float64, error)
	}{
		{"fig6", goldenParams(), Fig6},
		{"fig7", goldenParams(), Fig7},
		{"fig8", goldenParams(), Fig8},
		{"fig9", goldenParams(), Fig9},
		{"fig10", goldenParams(), Fig10},
		{"fig11", goldenParams(), Fig11},
		{"fig12", goldenParams(), Fig12},
		{"coverage", goldenCampaignParams(), Coverage},
		{"recovery", goldenCampaignParams(), FigRecovery},
		{"adaptive", goldenCampaignParams(), FigAdaptive},
	}
	for _, fig := range figs {
		fig := fig
		t.Run(fig.id, func(t *testing.T) {
			t.Parallel()
			tbl, summary, err := fig.run(fig.p)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fig.id, render(tbl, summary))
		})
	}
}
