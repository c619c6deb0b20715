package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Rebuilding a used machine. A machine rebuilt for a spec must be the
// machine Build returns for it, whatever it was built and run for before:
// the same state at cycle 0, the same run, and no leftover of the
// configuration a snapshot does not carry.

// rebuildTarget is the spec each mode's rebuild is checked at: gcc alone
// at the default store-queue size, Lock0 in lockstep mode and θ = 0.5 in
// adaptive mode.
func rebuildTarget(mode Mode) Spec {
	spec := Spec{
		Mode:     mode,
		Programs: []string{"gcc"},
		Budget:   1500,
		Warmup:   500,
		Config:   pipeline.DefaultConfig(),
		PSR:      mode != ModeBase,
	}
	if mode == ModeAdaptive {
		spec.AdaptiveThreshold = 0.5
	}
	return spec
}

// rebuildHistory is a spec a used machine ran before it is rebuilt.
type rebuildHistory struct {
	name string
	spec Spec
}

// rebuildHistories lists what a used machine may have run. Each crosses a
// shape change into some target: one core to two (base → CRT), two to one
// (CRT → SRT), a checker penalty that must not survive (Lock8 → Lock0), a
// larger store queue (SQCap 128 → 64), per-thread store queues turned off,
// a higher adaptive threshold (θ 0.95 → 0.5), and four programs to one.
func rebuildHistories() []rebuildHistory {
	spec := func(mode Mode, progs ...string) Spec {
		return Spec{
			Mode: mode, Programs: progs, Budget: 1500, Warmup: 500,
			Config: pipeline.DefaultConfig(), PSR: mode != ModeBase,
		}
	}
	lock8 := spec(ModeLockstep, "compress")
	lock8.CheckerLatency = 8
	sq128 := spec(ModeSRT, "li")
	sq128.Config.SQCap = 128
	ptSQ := spec(ModeSRT, "gcc")
	ptSQ.PerThreadSQ = true
	theta := spec(ModeAdaptive, "gcc")
	theta.AdaptiveThreshold = 0.95
	return []rebuildHistory{
		{"base", spec(ModeBase, "swim")},
		{"CRT", spec(ModeCRT, "gcc", "ijpeg")},
		{"Lock8", lock8},
		{"SQ=128", sq128},
		{"ptSQ", ptSQ},
		{"θ=0.95", theta},
		{"four programs", spec(ModeBase, "gcc", "swim", "li", "compress")},
	}
}

// copyRunStats copies rs deeply: the thread statistics it points at too.
func copyRunStats(rs *stats.RunStats) *stats.RunStats {
	c := *rs
	c.Threads = make([]*stats.ThreadStats, len(rs.Threads))
	for i, ts := range rs.Threads {
		v := *ts
		c.Threads[i] = &v
	}
	c.LogicalIPC = slices.Clone(rs.LogicalIPC)
	return &c
}

// TestRebuildMatchesBuild rebuilds, in every mode, machines that ran each
// of rebuildHistories, and checks each against a fresh Build of the same
// spec. At cycle 0 the two snapshots must be byte-equal: the sparse codec
// lists every non-empty cache set and trained table entry, so a stale one
// shows. Then both run: their RunStats and final snapshots must be equal,
// which catches configuration a snapshot skips, such as a cache's
// MissExtra. A RunStats the used machine returned before its rebuild must
// read the same after it: it points at statistics the rebuild replaces,
// not reuses.
func TestRebuildMatchesBuild(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			spec := rebuildTarget(mode)
			fresh, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			start, _ := fresh.Snapshot()
			want, err := fresh.Run()
			if err != nil {
				t.Fatal(err)
			}
			end, _ := fresh.Snapshot()
			for _, h := range rebuildHistories() {
				used, err := Build(h.spec)
				if err != nil {
					t.Fatal(err)
				}
				before, err := used.Run()
				if err != nil {
					t.Fatal(err)
				}
				kept := copyRunStats(before)
				if err := used.Rebuild(spec); err != nil {
					t.Fatalf("after %s: %v", h.name, err)
				}
				if got, _ := used.Snapshot(); !bytes.Equal(got, start) {
					t.Errorf("after %s: the rebuilt machine's cycle-0 snapshot (%d bytes) differs from a fresh build's (%d bytes)", h.name, len(got), len(start))
				}
				got, err := used.Run()
				if err != nil {
					t.Fatalf("after %s: %v", h.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("after %s: the rebuilt machine's run differs:\nfresh:   %+v\nrebuilt: %+v", h.name, want, got)
				}
				if got, _ := used.Snapshot(); !bytes.Equal(got, end) {
					t.Errorf("after %s: final snapshots differ", h.name)
				}
				if !reflect.DeepEqual(before, kept) {
					t.Errorf("after %s: the RunStats of the run before the rebuild changed", h.name)
				}
			}
		})
	}
}

// allocatedBytes returns the bytes f allocates per call, averaged over
// runs calls after a first, warming one.
func allocatedBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestRebuildAllocs pins what a rebuild saves. Rebuilding a used SRT
// machine for another one-program SRT spec reuses its caches' lines and
// its predictor tables, so it allocates under a tenth of the bytes a
// fresh Build does. What it still allocates is built fresh on purpose:
// the contexts, with their memories and queues, and the pair.
func TestRebuildAllocs(t *testing.T) {
	specs := []Spec{snapSpec(ModeSRT, "gcc"), snapSpec(ModeSRT, "swim")}
	m, err := Build(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	i := 0
	next := func() Spec {
		i++
		return specs[i%len(specs)]
	}
	built := allocatedBytes(10, func() {
		if _, err := Build(next()); err != nil {
			t.Fatal(err)
		}
	})
	rebuilt := allocatedBytes(10, func() {
		if err := m.Rebuild(next()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a fresh build allocates %d KB, a rebuild %d KB", built>>10, rebuilt>>10)
	if rebuilt*10 >= built {
		t.Errorf("a rebuild allocates %d bytes, not under a tenth of a fresh build's %d", rebuilt, built)
	}
}
