package sim

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/program"
)

// gateSpec is the machine the pool and zero-alloc gates build for mode:
// gcc, joined by ijpeg in CRT so that each cross-coupled core carries a
// leading and a trailing copy, and θ = 0.5 in adaptive mode so the
// protection table leaves some instructions unreplicated.
func gateSpec(mode Mode, budget, warmup uint64, cfg pipeline.Config) Spec {
	spec := Spec{
		Mode:     mode,
		Programs: []string{"gcc"},
		Budget:   budget,
		Warmup:   warmup,
		Config:   cfg,
		PSR:      true,
	}
	switch mode {
	case ModeCRT:
		spec.Programs = []string{"gcc", "ijpeg"}
	case ModeAdaptive:
		spec.AdaptiveThreshold = 0.5
	}
	return spec
}

// TestPoolDisabledIsCycleIdentical diffs full simulations with instruction
// recycling on and off, in every machine organisation: the pool is pure
// mechanics, so cycle counts and logical IPC must match exactly, and the
// pooled machine's architectural state must still match a functional replay
// (the metamorphic oracle).
func TestPoolDisabledIsCycleIdentical(t *testing.T) {
	for _, mode := range Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			spec := gateSpec(mode, 1500, 500, pipeline.DefaultConfig())
			run := func(disablePool bool) *Machine {
				s := spec
				s.Config.DisableInstPool = disablePool
				m, err := Build(s)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
				return m
			}
			pooled, unpooled := run(false), run(true)
			if pooled.Cycles != unpooled.Cycles {
				t.Errorf("cycles: pooled %d, unpooled %d", pooled.Cycles, unpooled.Cycles)
			}
			for i := range pooled.Leads {
				p, u := pooled.Leads[i], unpooled.Leads[i]
				if p.Committed() != u.Committed() {
					t.Errorf("lead %d committed: pooled %d, unpooled %d", i, p.Committed(), u.Committed())
				}
				if p.Arch.Seq != u.Arch.Seq {
					t.Errorf("lead %d seq: pooled %d, unpooled %d", i, p.Arch.Seq, u.Arch.Seq)
				}
				checkCopyAgainstReference(t, mode.String()+"/pooled", spec.Programs[i], p)
			}
			checkPairsClean(t, mode.String()+"/pooled", pooled)
		})
	}
}

// TestSteadyStateAllocs is the tentpole's gate: once the pipeline is warm
// (pool filled, ring buffers and comparator slots at their high-water
// marks), simulating a cycle must allocate nothing, in every machine
// organisation.
func TestSteadyStateAllocs(t *testing.T) {
	if program.MustBuild("gcc") == nil {
		t.Fatal("gcc kernel missing")
	}
	for _, mode := range Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			// The budget lies far beyond the measured window: fetch never
			// halts.
			m, err := Build(gateSpec(mode, 50_000_000, 0, pipeline.DefaultConfig()))
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: fill the pool, touch the kernels' working-set pages,
			// and let every slot array reach its high-water mark.
			lead := m.Leads[0]
			for lead.Committed() < 30_000 {
				for _, co := range m.Cores {
					co.Step()
				}
			}
			allocs := testing.AllocsPerRun(3000, func() {
				for _, co := range m.Cores {
					co.Step()
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %.2f allocations per simulated cycle after warmup, want 0", mode, allocs)
			}
		})
	}
}
