package sim

import (
	"strings"
	"testing"

	"repro/internal/pipeline"
)

func TestBuildRejectsEmptyAndUnknown(t *testing.T) {
	if _, err := Build(Spec{Mode: ModeBase, Config: pipeline.DefaultConfig()}); err == nil {
		t.Error("empty program list accepted")
	}
	_, err := Build(Spec{Mode: ModeBase, Programs: []string{"nonesuch"}, Config: pipeline.DefaultConfig()})
	if err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("unknown kernel error = %v", err)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeBase: "base", ModeBase2: "base2", ModeSRT: "srt",
		ModeLockstep: "lockstep", ModeCRT: "crt",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

// TestCRTFourProgramTopology checks Figure 5's cross-coupling generalised to
// four programs: two leading threads per core, trailing threads on the
// opposite core, and a shared L2.
func TestCRTFourProgramTopology(t *testing.T) {
	m, err := Build(Spec{
		Mode:     ModeCRT,
		Programs: []string{"gcc", "go", "ijpeg", "swim"},
		Budget:   3000, Warmup: 1000,
		Config: pipeline.DefaultConfig(),
		PSR:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cores) != 2 {
		t.Fatalf("cores = %d", len(m.Cores))
	}
	if m.Cores[0].Hierarchy().L2 != m.Cores[1].Hierarchy().L2 {
		t.Error("CRT cores must share the L2")
	}
	perCore := map[int]int{}
	for _, p := range m.Pairs {
		if p.LeadCore == p.TrailCore {
			t.Errorf("pair %d not cross-core", p.LogicalID)
		}
		perCore[p.LeadCore]++
	}
	if perCore[0] != 2 || perCore[1] != 2 {
		t.Errorf("leading threads per core = %v, want 2+2", perCore)
	}
	for _, co := range m.Cores {
		if n := len(co.Contexts()); n != 4 {
			t.Errorf("core has %d contexts, want 4 (2 leading + 2 trailing)", n)
		}
	}
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, ipc := range rs.LogicalIPC {
		if ipc <= 0.01 {
			t.Errorf("program %d IPC %.3f", i, ipc)
		}
	}
}

// TestRunsAreDeterministic: two identical builds produce identical cycle
// counts and identical per-thread statistics — the property every recorded
// experiment depends on.
func TestRunsAreDeterministic(t *testing.T) {
	spec := Spec{
		Mode: ModeSRT, Programs: []string{"wave5"},
		Budget: 5000, Warmup: 2000,
		Config: pipeline.DefaultConfig(), PSR: true,
	}
	run := func() (uint64, uint64, float64) {
		m, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs.Cycles, m.Pairs[0].Cmp.Comparisons.Value(), rs.LogicalIPC[0]
	}
	c1, n1, i1 := run()
	c2, n2, i2 := run()
	if c1 != c2 || n1 != n2 || i1 != i2 {
		t.Errorf("non-deterministic: cycles %d/%d comparisons %d/%d ipc %v/%v",
			c1, c2, n1, n2, i1, i2)
	}
}

// TestWarmupImprovesMeasuredIPC: measuring after warmup must not be slower
// than measuring cold for a cache-warming kernel.
func TestWarmupImprovesMeasuredIPC(t *testing.T) {
	ipc := func(warmup uint64) float64 {
		m, err := Build(Spec{
			Mode: ModeBase, Programs: []string{"tomcatv"},
			Budget: 8000, Warmup: warmup, Config: pipeline.DefaultConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs.LogicalIPC[0]
	}
	cold := ipc(0)
	warm := ipc(40000)
	if warm < cold {
		t.Errorf("warm IPC %.3f < cold IPC %.3f", warm, cold)
	}
}

// TestLockstepCheckerCost: Lock8 must cost cycles vs Lock0 at the sim
// level too (vortex misses a lot).
func TestLockstepCheckerCost(t *testing.T) {
	cycles := func(checker uint64) uint64 {
		m, err := Build(Spec{
			Mode: ModeLockstep, Programs: []string{"vortex"},
			Budget: 6000, Warmup: 2000, CheckerLatency: checker,
			Config: pipeline.DefaultConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs.Cycles
	}
	if l0, l8 := cycles(0), cycles(8); l8 <= l0 {
		t.Errorf("Lock8 %d cycles <= Lock0 %d", l8, l0)
	}
}
