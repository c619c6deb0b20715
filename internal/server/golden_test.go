package server

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/rmt"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestCanonicalKeysGolden pins the cache key of every request in a fixed
// corpus: every mode × {no knob, each knob alone, all knobs} × two
// workloads, through /run (sizes omitted, default sizes spelled out,
// custom sizes), /sweep and /campaign. A key that moves strands every
// result cached under the old one, so changes to the wire format or the
// mode table must leave the file byte-identical. A rejected request is
// recorded as rejected, without its message.
func TestCanonicalKeysGolden(t *testing.T) {
	knobs := []string{
		`"checker_latency":8`,
		`"adaptive_threshold":0.5`,
		`"checkpoint_interval":512`,
		`"psr":true`,
		`"per_thread_sq":true`,
		`"no_store_comparison":true`,
	}
	knobSets := append(append([]string{""}, knobs...), strings.Join(knobs, ","))
	type endpoint struct {
		name  string
		parse func([]byte) (string, error)
	}
	run := endpoint{"run", func(b []byte) (string, error) { _, _, k, err := parseRun(b); return k, err }}
	sweep := endpoint{"sweep", func(b []byte) (string, error) { _, _, k, err := parseSweep(b); return k, err }}
	campaign := endpoint{"campaign", func(b []byte) (string, error) { _, _, k, err := parseCampaign(b); return k, err }}

	var out strings.Builder
	for _, mode := range rmt.Modes() {
		for _, progs := range []string{`["gcc"]`, `["gen:7","swim"]`} {
			for _, knob := range knobSets {
				spec := fmt.Sprintf(`"mode":%q,"programs":%s`, mode, progs)
				if knob != "" {
					spec += "," + knob
				}
				for _, req := range []struct {
					ep   endpoint
					body string
				}{
					{run, "{" + spec + "}"},
					{run, fmt.Sprintf(`{%s,"budget":%d,"warmup":%d}`, spec, rmt.DefaultBudget, rmt.DefaultWarmup)},
					{run, "{" + spec + `,"budget":1500,"warmup":800}`},
					{sweep, `{"specs":[{` + spec + `}]}`},
					{campaign, "{" + spec + `,"n":4,"seed":7}`},
				} {
					key, err := req.ep.parse([]byte(req.body))
					if err != nil {
						key = "rejected"
					}
					fmt.Fprintf(&out, "%s %s %s\n", req.ep.name, req.body, key)
				}
			}
		}
	}

	path := filepath.Join("testdata", "canonical_keys.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/server -run TestCanonicalKeysGolden -update`): %v", err)
	}
	if out.String() != string(want) {
		t.Errorf("canonical keys drifted from %s:\n%s", path, lineDiff(string(want), out.String()))
	}
}

// lineDiff lists the lines at which got departs from want.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
