package sim

import (
	"bytes"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/vm"
)

// lockstepSpecs are the ModeLockstep runs the two-core tests cover: gcc,
// swim and both together, at Lock0 and Lock8.
func lockstepSpecs() []Spec {
	var specs []Spec
	for _, progs := range [][]string{{"gcc"}, {"swim"}, {"gcc", "swim"}} {
		for _, checker := range []uint64{0, 8} {
			specs = append(specs, Spec{
				Mode: ModeLockstep, Programs: progs,
				Budget: 8000, Warmup: 4000, CheckerLatency: checker,
				Config: pipeline.DefaultConfig(),
			})
		}
	}
	return specs
}

// runLockstepPair runs spec's programs on two cores, each with its own
// caches and its own copy of every program, stepped together under one
// pipeline.Machine with the checker penalties Rebuild charges.
func runLockstepPair(t *testing.T, spec Spec) (*pipeline.Machine, *stats.RunStats) {
	t.Helper()
	cfg := spec.Config
	cfg.Hier.CheckerMissPenalty = spec.CheckerLatency
	cfg.CheckerStorePenalty = spec.CheckerLatency
	pair := &pipeline.Machine{}
	for id := 0; id < 2; id++ {
		core := pipeline.NewCore(id, cfg, nil)
		for i, name := range spec.Programs {
			ctx, err := newSingle(name, i, spec)
			if err != nil {
				t.Fatal(err)
			}
			wireIO(vm.NewPseudoDevice(0xD0000+uint64(i)), nil, ctx, nil)
			core.AddContext(ctx)
		}
		core.FinalizeQueues()
		pair.Cores = append(pair.Cores, core)
	}
	got, err := pair.Run((spec.Warmup+spec.Budget)*60 + 500000)
	if err != nil {
		t.Fatal(err)
	}
	return pair, got
}

// TestFaultFreeCoresStayInLockstep checks the fundamental lockstep
// property: identical cores fed identical inputs retire the same
// instructions into byte-identical committed memory.
func TestFaultFreeCoresStayInLockstep(t *testing.T) {
	for _, spec := range lockstepSpecs() {
		pair, _ := runLockstepPair(t, spec)
		progs, checker := spec.Programs, spec.CheckerLatency
		if a, b := pair.Cores[0].Retired, pair.Cores[1].Retired; a != b || a == 0 {
			t.Errorf("%v checker=%d: cores retired %d and %d", progs, checker, a, b)
		}
		for i, name := range progs {
			a, b := pair.Cores[0].Contexts()[i], pair.Cores[1].Contexts()[i]
			if a.Committed() != b.Committed() {
				t.Errorf("%s checker=%d: committed %d and %d", name, checker, a.Committed(), b.Committed())
			}
			if !bytes.Equal(committedMemory(a), committedMemory(b)) {
				t.Errorf("%s checker=%d: the cores' committed memories differ", name, checker)
			}
		}
	}
}

// TestLockstepPairMatchesModel checks the equivalence ModeLockstep rests
// on: two fault-free lockstepped cores are cycle-identical, so simulating
// one of them with the checker penalties charged is exact. The two-core
// run must take the model's cycle count, and each program's IPC on each
// core must equal the single-core model's exactly.
func TestLockstepPairMatchesModel(t *testing.T) {
	for _, spec := range lockstepSpecs() {
		model, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Run()
		if err != nil {
			t.Fatal(err)
		}
		_, got := runLockstepPair(t, spec)

		progs, checker := spec.Programs, spec.CheckerLatency
		if got.Cycles != want.Cycles {
			t.Errorf("%v checker=%d: two cores ran %d cycles, the model %d", progs, checker, got.Cycles, want.Cycles)
		}
		n := len(progs)
		for i, name := range progs {
			for core, ipc := range []float64{got.LogicalIPC[i], got.LogicalIPC[n+i]} {
				if ipc != want.LogicalIPC[i] {
					t.Errorf("%s checker=%d: core %d IPC %.6f, single-core model %.6f",
						name, checker, core, ipc, want.LogicalIPC[i])
				}
			}
		}
	}
}

// committedMemory encodes the memory ctx's stores commit to.
func committedMemory(ctx *pipeline.Context) []byte {
	s := snap.NewEncoder(nil)
	ctx.Arch.Mem.Backing().Snap(s)
	return s.Finish()
}
