package rmt

import (
	"context"
	"strings"
	"testing"
)

// testOpts keeps facade tests fast.
func testOpts(extra ...Option) []Option {
	return append([]Option{WithBudget(3000), WithWarmup(1500)}, extra...)
}

// TestRunSRT: the facade runs a redundant pair end to end and surfaces the
// sphere-of-replication activity without any internal imports.
func TestRunSRT(t *testing.T) {
	res, err := Run(context.Background(), Spec{Mode: SRT, PSR: true, Programs: []string{"gcc"}}, testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || len(res.IPC) != 1 || res.IPC[0] <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if len(res.Checks) != 1 {
		t.Fatalf("SRT run should expose one pair's checks, got %d", len(res.Checks))
	}
	c := res.Checks[0]
	if c.StoresCompared == 0 || c.LoadsReplicated == 0 {
		t.Errorf("no sphere-boundary activity recorded: %+v", c)
	}
	if c.StoreMismatches != 0 {
		t.Errorf("fault-free run reported %d mismatches", c.StoreMismatches)
	}
	if len(res.StoreLifetime) != 1 || res.StoreLifetime[0] <= 0 {
		t.Errorf("store lifetime missing: %v", res.StoreLifetime)
	}
}

// TestRunBaseHasNoChecks: non-redundant modes expose no pair activity.
func TestRunBaseHasNoChecks(t *testing.T) {
	res, err := Run(context.Background(), Spec{Mode: Base, Programs: []string{"compress"}}, testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checks) != 0 {
		t.Errorf("base run has %d pair checks, want 0", len(res.Checks))
	}
}

// TestSweepOrderingAndReport: results come back in spec order and the
// report accounts for every job.
func TestSweepOrderingAndReport(t *testing.T) {
	specs := []Spec{
		{Mode: Base, Programs: []string{"gcc"}},
		{Mode: SRT, PSR: true, Programs: []string{"gcc"}},
		{Mode: Base, Programs: []string{"swim"}},
	}
	var rep Report
	var lastDone int
	results, err := Sweep(context.Background(), specs, testOpts(
		WithParallelism(3),
		WithProgress(func(done, total int) { lastDone = done }),
		WithReport(func(r Report) { rep = r }))...)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Spec.Mode != specs[i].Mode || r.Spec.Programs[0] != specs[i].Programs[0] {
			t.Errorf("result %d echoes spec %+v, want %+v", i, r.Spec, specs[i])
		}
	}
	if len(results[1].Checks) != 1 || len(results[0].Checks) != 0 {
		t.Error("sweep results not aligned with specs (checks mismatch)")
	}
	if rep.Jobs != 3 || lastDone != 3 {
		t.Errorf("report jobs=%d lastDone=%d, want 3", rep.Jobs, lastDone)
	}
	// The SRT run is strictly slower than base on the same kernel.
	if results[1].IPC[0] >= results[0].IPC[0] {
		t.Errorf("SRT IPC %.3f >= base IPC %.3f; redundancy should cost something",
			results[1].IPC[0], results[0].IPC[0])
	}
}

// TestReportFromCampaignAndExperiment: WithReport reaches Campaign and
// Experiment.Run as it reaches Sweep, once per batch they run, with every
// job of a completed batch counted as run.
func TestReportFromCampaignAndExperiment(t *testing.T) {
	var reps []Report
	onReport := WithReport(func(r Report) { reps = append(reps, r) })
	check := func(what string, batches int) {
		t.Helper()
		if len(reps) != batches {
			t.Fatalf("%s: %d reports, want %d", what, len(reps), batches)
		}
		for _, r := range reps {
			if r.Jobs == 0 || r.Ran != r.Jobs {
				t.Errorf("%s: report jobs=%d ran=%d, want every job run", what, r.Jobs, r.Ran)
			}
		}
		reps = nil
	}
	if _, err := Campaign(context.Background(), CampaignSpec{
		Spec: Spec{Mode: SRT, PSR: true, Programs: []string{"compress"}}, N: 8, Seed: 7,
	}, testOpts(onReport)...); err != nil {
		t.Fatal(err)
	}
	check("campaign", 1)
	fig6 := Experiments()[0]
	if _, _, err := fig6.Run(WithBudget(300), WithWarmup(300), onReport); err != nil {
		t.Fatal(err)
	}
	check(fig6.ID, 1)
}

// TestSweepDeterministicAcrossParallelism: the same sweep yields identical
// numbers serially and fanned out.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	specs := []Spec{
		{Mode: SRT, PSR: true, Programs: []string{"li"}},
		{Mode: CRT, PSR: true, Programs: []string{"gcc", "swim"}},
	}
	serial, err := Sweep(context.Background(), specs, testOpts(WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(context.Background(), specs, testOpts(WithParallelism(4))...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Cycles != parallel[i].Cycles {
			t.Errorf("spec %d: cycles %d (serial) vs %d (parallel)", i, serial[i].Cycles, parallel[i].Cycles)
		}
		for j := range serial[i].IPC {
			if serial[i].IPC[j] != parallel[i].IPC[j] {
				t.Errorf("spec %d thread %d: IPC differs", i, j)
			}
		}
	}
}

// TestBaseIPC: reference runs come back keyed by kernel, deduplicated.
func TestBaseIPC(t *testing.T) {
	got, err := BaseIPC(context.Background(), []string{"gcc", "swim", "gcc"}, testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 entries, got %v", got)
	}
	for k, v := range got {
		if v <= 0 {
			t.Errorf("base IPC of %s = %v", k, v)
		}
	}
}

// TestModeRoundTrip: ParseMode inverts String for every mode, and bad
// input errors.
func TestModeRoundTrip(t *testing.T) {
	for _, m := range Modes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus input")
	}
	if _, err := Run(context.Background(), Spec{Mode: Mode(99), Programs: []string{"gcc"}}, testOpts()...); err == nil {
		t.Error("Run accepted an unknown mode")
	}
}

// TestKernels: the suite is exposed and includes the paper's multiprogram
// workloads.
func TestKernels(t *testing.T) {
	ks := Kernels()
	if len(ks) != 18 {
		t.Fatalf("suite has %d kernels, want 18", len(ks))
	}
	have := map[string]bool{}
	for _, k := range ks {
		have[k] = true
	}
	for _, want := range []string{"gcc", "go", "fpppp", "swim"} {
		if !have[want] {
			t.Errorf("suite missing %s", want)
		}
	}
}

// TestExperimentsFacade: every experiment is listed, and a quick Table1
// render carries the machine parameters.
func TestExperimentsFacade(t *testing.T) {
	exps := Experiments()
	if len(exps) != 10 {
		t.Fatalf("want 10 experiments, got %d", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Description == "" {
			t.Errorf("experiment missing metadata: %+v", e)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig6", "fig12", "coverage", "recovery", "adaptive"} {
		if !ids[want] {
			t.Errorf("experiments missing %s", want)
		}
	}
	tbl := Table1()
	if !strings.Contains(tbl.String(), "store queue") {
		t.Error("Table1 render missing machine parameters")
	}
	if len(tbl.Rows()) == 0 || len(tbl.Columns()) == 0 || tbl.Title() == "" {
		t.Error("Table accessors empty")
	}
	if !strings.Contains(tbl.CSV(), ",") {
		t.Error("CSV render empty")
	}
}

// TestExperimentSizes: option resolution for experiment sizing.
func TestExperimentSizes(t *testing.T) {
	if b, w := ExperimentSizes(); b != 50000 || w != 50000 {
		t.Errorf("full sizes = %d/%d", b, w)
	}
	if b, w := ExperimentSizes(WithQuick()); b != 8000 || w != 5000 {
		t.Errorf("quick sizes = %d/%d", b, w)
	}
	if b, w := ExperimentSizes(WithQuick(), WithBudget(123), WithWarmup(45)); b != 123 || w != 45 {
		t.Errorf("override sizes = %d/%d", b, w)
	}
}
