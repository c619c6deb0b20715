package exp

import (
	"testing"

	"repro/internal/sim"
)

// TestParallelDeterminism is the headline invariant of the sweep engine:
// the rendered tables — every cell, every mean — are identical whether the
// jobs run serially or fanned across workers, for both a figure sweep and
// a sharded fault-injection campaign.
func TestParallelDeterminism(t *testing.T) {
	tiny := quick()
	tiny.Budget = 2000
	tiny.Warmup = 1000
	tiny.CampaignRuns = 6

	experiments := []struct {
		name string
		run  func(Params) (string, error)
	}{
		{"fig6", func(p Params) (string, error) {
			tbl, _, err := Fig6(p)
			if err != nil {
				return "", err
			}
			return tbl.String(), nil
		}},
		{"coverage", func(p Params) (string, error) {
			tbl, _, err := Coverage(p)
			if err != nil {
				return "", err
			}
			return tbl.String(), nil
		}},
		{"recovery", func(p Params) (string, error) {
			tbl, _, err := FigRecovery(p)
			if err != nil {
				return "", err
			}
			return tbl.String(), nil
		}},
		{"adaptive", func(p Params) (string, error) {
			tbl, _, err := FigAdaptive(p)
			if err != nil {
				return "", err
			}
			return tbl.String(), nil
		}},
	}
	for _, e := range experiments {
		serial := tiny
		serial.Parallelism = 1
		parallel := tiny
		parallel.Parallelism = 8

		want, err := e.run(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", e.name, err)
		}
		got, err := e.run(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.name, err)
		}
		if got != want {
			t.Errorf("%s: parallel output differs from serial\n--- serial ---\n%s--- parallel ---\n%s", e.name, want, got)
		}
	}
}

// TestSweepErrorPropagation: a failing job inside a figure sweep, or its
// program's failing reference run, surfaces its error instead of a partial
// table.
func TestSweepErrorPropagation(t *testing.T) {
	p := quick()
	p.Parallelism = 4
	good := sim.Spec{Mode: sim.ModeBase, Programs: []string{"gcc"}}
	bad := sim.Spec{Mode: sim.ModeBase, Programs: []string{"no-such-kernel"}}
	jobs := []job{{p, good}, {p, bad}, {p, good}}
	if _, err := sweep(p, jobs); err == nil {
		t.Fatal("expected the unknown-kernel job to fail the sweep")
	}
}
