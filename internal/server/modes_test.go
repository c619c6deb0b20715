// The mode round-trip battery: every machine organisation in internal/sim's
// mode table must survive the naming chain unchanged — Mode.String →
// rmt.ParseMode → the daemon's canonical request key → the campaign gate.
// The test names no mode itself, so a new table row is covered the day it
// lands.
package server

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/rmt"
)

func TestModeRoundTripExhaustive(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range sim.Modes() {
		name := m.String()
		t.Run(name, func(t *testing.T) {
			if seen[name] {
				t.Fatalf("two modes spell themselves %q", name)
			}
			seen[name] = true

			// Facade layer: the name parses back to the mode.
			rm, err := rmt.ParseMode(name)
			if err != nil {
				t.Fatalf("rmt.ParseMode(%q): %v", name, err)
			}
			if rm != m {
				t.Fatalf("rmt.ParseMode(%q) = %v, want %v", name, rm, m)
			}

			// Wire layer: a /run request in this mode canonicalises with the
			// mode name intact (canonicalisation must never rewrite a
			// canonical spelling into something else).
			body := fmt.Sprintf(`{"mode":%q,"programs":["li"]}`, name)
			req, spec, key, err := parseRun([]byte(body))
			if err != nil {
				t.Fatalf("parseRun: %v", err)
			}
			if spec.Mode != m || req.Mode != name {
				t.Fatalf("parseRun resolved (%v, %q), want (%v, %q)", spec.Mode, req.Mode, m, name)
			}
			if !strings.HasPrefix(key, "run:") {
				t.Fatalf("canonical key %q lacks endpoint prefix", key)
			}
			// Canonicalisation is a fixed point: re-parsing the normalised
			// request yields the same key.
			enc := fmt.Sprintf(`{"mode":%q,"programs":["li"],"budget":%d,"warmup":%d}`,
				req.Mode, req.Budget, req.Warmup)
			if _, _, key2, err := parseRun([]byte(enc)); err != nil || key2 != key {
				t.Fatalf("canonical key not a fixed point: %q vs %q (%v)", key, key2, err)
			}

			// Campaign gate: /campaign accepts exactly the paired modes and
			// hands the facade the mode we started from.
			cbody := fmt.Sprintf(`{"mode":%q,"programs":["li"],"n":4}`, name)
			_, cs, _, cerr := parseCampaign([]byte(cbody))
			if m.Paired() {
				if cerr != nil {
					t.Fatalf("parseCampaign rejects paired mode: %v", cerr)
				}
				if cs.Spec.Mode != m {
					t.Fatalf("parseCampaign resolves %q to %v, want %v", name, cs.Spec.Mode, m)
				}
			} else if cerr == nil {
				t.Fatalf("parseCampaign accepted %q, which runs no leading/trailing pair", name)
			}
		})
	}

	// A mode outside the table has no name to parse back from.
	outside := sim.Mode(len(sim.Modes()))
	if _, err := rmt.ParseMode(outside.String()); err == nil {
		t.Fatalf("rmt.ParseMode accepted %q, the name of a mode outside the table", outside)
	}
}

// TestIgnoredKnobsChangeNothing checks the mode table's knob column against
// the engine. rmtd serves one cached body for every value of a knob the
// mode does not read, which is sound only if that knob really changes
// nothing: with it set, rmt.Run returns the Result it returns with the knob
// at zero (apart from the echoed Spec), and so does a 4-trial rmt.Campaign
// for a paired mode.
func TestIgnoredKnobsChangeNothing(t *testing.T) {
	ctx := context.Background()
	opts := []rmt.Option{rmt.WithBudget(tBudget), rmt.WithWarmup(tWarmup)}
	knobs := []struct {
		name string
		set  func(*rmt.Spec)
	}{
		{"checker_latency", func(s *rmt.Spec) { s.CheckerLatency = 8 }},
		{"adaptive_threshold", func(s *rmt.Spec) { s.AdaptiveThreshold = 0.5 }},
		{"checkpoint_interval", func(s *rmt.Spec) { s.CheckpointInterval = 512 }},
	}
	for _, m := range sim.Modes() {
		t.Run(m.String(), func(t *testing.T) {
			zero := rmt.Spec{Mode: m, Programs: []string{"gcc"}, PSR: true}
			want, err := rmt.Run(ctx, zero, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var wantSum *rmt.CampaignSummary
			if m.Paired() {
				if wantSum, err = rmt.Campaign(ctx, rmt.CampaignSpec{Spec: zero, N: 4, Seed: 7}, opts...); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range knobs {
				spec := zero
				k.set(&spec)
				if !reflect.DeepEqual(spec.Canonical(), zero) {
					continue // the mode reads this knob
				}
				got, err := rmt.Run(ctx, spec, opts...)
				if err != nil {
					t.Fatalf("%s set: %v", k.name, err)
				}
				got.Spec = want.Spec
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s is ignored by the mode table but moved the Result", k.name)
				}
				if wantSum == nil {
					continue
				}
				sum, err := rmt.Campaign(ctx, rmt.CampaignSpec{Spec: spec, N: 4, Seed: 7}, opts...)
				if err != nil {
					t.Fatalf("%s set: campaign: %v", k.name, err)
				}
				if !reflect.DeepEqual(sum, wantSum) {
					t.Errorf("%s is ignored by the mode table but moved the campaign:\ngot  %+v\nwant %+v", k.name, sum, wantSum)
				}
			}
		})
	}
}
