package exp

import (
	"testing"

	"repro/internal/program"
	"repro/internal/runner"
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

// TestSweepReusesDeclaredReferences: each distinct simulation runs once
// per sweep. A declared job that is its program's reference run (the base
// machine, the program alone, at the figure's standard Params) shares
// that run instead of a second, identical simulation. A base job at other
// Params does not, and a program without such a job gets a reference run
// of its own. Efficiencies read the same as with separate reference runs.
func TestSweepReusesDeclaredReferences(t *testing.T) {
	p := quick()
	p.Budget, p.Warmup = 1000, 500
	other := p
	other.Config.SQCap = 32
	base := sim.Spec{Mode: sim.ModeBase, Programs: []string{"gcc"}}
	srt := func(name string) sim.Spec {
		return sim.Spec{Mode: sim.ModeSRT, PSR: true, Programs: []string{name}}
	}
	var jobs int
	p.OnReport = func(r runner.Report) { jobs = r.Jobs }
	res, err := sweep(p, []job{{p, srt("gcc")}, {other, base}, {p, base}, {p, srt("swim")}})
	if err != nil {
		t.Fatal(err)
	}
	if jobs != 5 {
		t.Errorf("sweep ran %d jobs, want 5: gcc's reference, which a declared job shares, three more declared and swim's reference", jobs)
	}
	if res[2].eff != 1 {
		t.Errorf("the reference job's own efficiency is %v, want 1", res[2].eff)
	}
	for i, name := range []string{"gcc", "swim"} {
		alone, err := sweep(p, []job{{p, srt(name)}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res[3*i].eff, alone[0].eff; got != want {
			t.Errorf("%s: efficiency %v against a declared reference, %v against its own", name, got, want)
		}
	}
	// Fig9 declares six jobs per kernel at its standard Params: a base job,
	// which is the kernel's reference run, and an SQ=32 job, which is its
	// SRT job at the default store-queue size. Five simulations per kernel.
	p.Budget, p.Warmup = 300, 300
	if _, _, err := Fig9(p); err != nil {
		t.Fatal(err)
	}
	if want := 5 * len(program.Names()); jobs != want {
		t.Errorf("Fig9 ran %d jobs, want %d", jobs, want)
	}
}
