package sim

import (
	"testing"

	"repro/internal/pipeline"
)

func smokeSpec(mode Mode, progs ...string) Spec {
	return Spec{
		Mode:     mode,
		Programs: progs,
		Budget:   5000,
		Config:   pipeline.DefaultConfig(),
		PSR:      true,
	}
}

func runSmoke(t *testing.T, spec Spec) float64 {
	t.Helper()
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.LogicalIPC) != len(spec.Programs) {
		t.Fatalf("logical IPC count = %d, want %d", len(rs.LogicalIPC), len(spec.Programs))
	}
	for i, ipc := range rs.LogicalIPC {
		if ipc <= 0.05 || ipc > 8 {
			t.Fatalf("%v %s: implausible IPC %.3f (cycles=%d)", spec.Mode, spec.Programs[i], ipc, rs.Cycles)
		}
	}
	return rs.LogicalIPC[0]
}

func TestBaseSingleThreadRuns(t *testing.T) {
	runSmoke(t, smokeSpec(ModeBase, "gcc"))
}

func TestSRTSingleProgramRuns(t *testing.T) {
	runSmoke(t, smokeSpec(ModeSRT, "gcc"))
}

func TestSRTIsSlowerThanBase(t *testing.T) {
	base := runSmoke(t, smokeSpec(ModeBase, "gcc"))
	srt := runSmoke(t, smokeSpec(ModeSRT, "gcc"))
	if srt >= base {
		t.Errorf("SRT IPC %.3f >= base IPC %.3f; redundant execution should cost something", srt, base)
	}
}

func TestLockstepRuns(t *testing.T) {
	spec := smokeSpec(ModeLockstep, "swim")
	spec.CheckerLatency = 8
	runSmoke(t, spec)
}

func TestCRTSingleProgramRuns(t *testing.T) {
	runSmoke(t, smokeSpec(ModeCRT, "gcc"))
}

func TestCRTTwoProgramsCrossCoupled(t *testing.T) {
	m, err := Build(smokeSpec(ModeCRT, "gcc", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cores) != 2 {
		t.Fatalf("CRT should build 2 cores, got %d", len(m.Cores))
	}
	// Cross-coupling: each pair's leading and trailing cores must differ.
	for _, p := range m.Pairs {
		if p.LeadCore == p.TrailCore {
			t.Errorf("pair %d not cross-core: lead=%d trail=%d", p.LogicalID, p.LeadCore, p.TrailCore)
		}
	}
	if m.Pairs[0].LeadCore == m.Pairs[1].LeadCore {
		t.Error("two-program CRT should place the leading threads on different cores")
	}
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, ipc := range rs.LogicalIPC {
		if ipc <= 0.05 {
			t.Errorf("program %d IPC %.3f", i, ipc)
		}
	}
}

func TestBase2Runs(t *testing.T) {
	m, err := Build(smokeSpec(ModeBase2, "go"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Threads) != 2 {
		t.Fatalf("Base2 should run 2 hardware threads, got %d", len(rs.Threads))
	}
	if rs.LogicalIPC[0] <= 0.05 {
		t.Fatalf("IPC %.3f", rs.LogicalIPC[0])
	}
}

// TestBase2ProgramIPC runs two programs under Base2, which lists each
// program's two copies side by side in LogicalIPC: ProgramIPC must read
// each program's measured copy (its Leads context), not the entry at the
// program's own index.
func TestBase2ProgramIPC(t *testing.T) {
	m, err := Build(smokeSpec(ModeBase2, "swim", "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.LogicalIPC) != 4 {
		t.Fatalf("Base2 on two programs lists %d IPCs, want 4", len(rs.LogicalIPC))
	}
	ipcs := ModeBase2.ProgramIPCs(rs, 2)
	for i, c := range m.Leads {
		if c.FinishCycle == 0 {
			t.Fatalf("program %d did not reach its budget", i)
		}
		want := float64(c.Budget-c.Warmup) / float64(c.FinishCycle-c.WarmCycle)
		if got := ModeBase2.ProgramIPC(rs, i); got != want || ipcs[i] != want {
			t.Errorf("program %d: ProgramIPC %.4f, ProgramIPCs %.4f, its measured copy ran at %.4f", i, got, ipcs[i], want)
		}
	}
	if ipcs[1] == rs.LogicalIPC[1] {
		t.Error("gcc reads the IPC of swim's second copy")
	}
}

func TestSRTTwoLogicalThreads(t *testing.T) {
	m, err := Build(smokeSpec(ModeSRT, "gcc", "go"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Cores[0].Contexts()); n != 4 {
		t.Fatalf("two SRT pairs should use 4 hardware contexts, got %d", n)
	}
	for i, ipc := range rs.LogicalIPC {
		if ipc <= 0.02 {
			t.Errorf("program %d IPC %.3f", i, ipc)
		}
	}
}

// TestSRTComparesEveryStore checks that output comparison actually covers
// the store stream: comparisons happened and no mismatches were recorded in
// a fault-free run.
func TestSRTComparesEveryStore(t *testing.T) {
	m, err := Build(smokeSpec(ModeSRT, "compress"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	pair := m.Pairs[0]
	if pair.Cmp.Comparisons.Value() == 0 {
		t.Fatal("no store comparisons happened")
	}
	if pair.Cmp.Mismatches.Value() != 0 {
		t.Fatalf("%d mismatches in a fault-free run", pair.Cmp.Mismatches.Value())
	}
	if len(pair.Detected) != 0 {
		t.Fatalf("fault-free run recorded detections: %v", pair.Detected[0])
	}
}
