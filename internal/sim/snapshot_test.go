package sim

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// snapSpec is the machine the snapshot tests build. Lockstep and adaptive
// set their knobs (Lock8, θ = 0.5) so they do not repeat base and SRT.
func snapSpec(mode Mode, progs ...string) Spec {
	spec := Spec{
		Mode:     mode,
		Programs: progs,
		Budget:   4000,
		Warmup:   1000,
		Config:   pipeline.DefaultConfig(),
		PSR:      mode != ModeBase,
	}
	switch mode {
	case ModeLockstep:
		spec.CheckerLatency = 8
	case ModeAdaptive:
		spec.AdaptiveThreshold = 0.5
	}
	return spec
}

// runToCycle builds a machine for spec, snapshots it at the top of
// iteration k, and runs to completion. It returns the mid-run snapshot and
// the finished machine.
func runToCycle(t testing.TB, spec Spec, k uint64) (snapshot []byte, m *Machine) {
	t.Helper()
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.OnCycle = func(cycle uint64) error {
		if cycle == k {
			snapshot, err = m.Snapshot()
			return err
		}
		return nil
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if snapshot == nil {
		t.Fatalf("run finished before cycle %d; no snapshot taken", k)
	}
	return snapshot, m
}

// TestRestoredRunCycleIdentical is the tentpole invariant: a machine
// restored from a mid-run snapshot and run to completion produces
// cycle-identical stats and a byte-identical final snapshot to the
// uninterrupted run, for every machine organisation, with one program and
// with two.
func TestRestoredRunCycleIdentical(t *testing.T) {
	type restoreCase struct {
		name string
		spec Spec
	}
	var cases []restoreCase
	for _, mode := range Modes() {
		cases = append(cases,
			restoreCase{mode.String(), snapSpec(mode, "compress")},
			restoreCase{mode.String() + " two programs", snapSpec(mode, "gcc", "swim")})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference run.
			ref, err := Build(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			refStats, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}
			refSnap, err := ref.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Interrupted run: snapshot mid-flight, restore into a fresh
			// machine, finish there.
			mid, _ := runToCycle(t, tc.spec, 2500)
			restored, err := Restore(tc.spec, mid)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Cycles != 2500 {
				t.Fatalf("restored machine at cycle %d, want 2500", restored.Cycles)
			}
			gotStats, err := restored.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refStats, gotStats) {
				t.Errorf("restored run stats differ:\nref: %+v\ngot: %+v", refStats, gotStats)
			}
			gotSnap, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refSnap, gotSnap) {
				t.Errorf("final snapshots differ: ref %d bytes, got %d bytes", len(refSnap), len(gotSnap))
			}
		})
	}
}

// TestSnapshotDeterministic: snapshotting the same state twice yields the
// same bytes, and snapshots of two identically-built-and-run machines are
// byte-identical (no map-order or pointer-identity leakage).
func TestSnapshotDeterministic(t *testing.T) {
	spec := snapSpec(ModeSRT, "vortex")
	a, _ := runToCycle(t, spec, 2000)
	b, _ := runToCycle(t, spec, 2000)
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots of identical runs differ: %d vs %d bytes", len(a), len(b))
	}
	m, err := Restore(spec, a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c, d) {
		t.Fatal("back-to-back snapshots of one machine differ")
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("restore/re-snapshot round trip not byte-identical: %d vs %d bytes", len(a), len(c))
	}
}

// TestRestorePreservesPoolGenerations: dynInst recycling correctness after
// restore depends on every pool slot keeping its generation counter; a
// restore that reset generations would silently revive stale instRefs.
func TestRestorePreservesPoolGenerations(t *testing.T) {
	spec := snapSpec(ModeSRT, "li")
	snapshot, _ := runToCycle(t, spec, 3000)
	m, err := Restore(spec, snapshot)
	if err != nil {
		t.Fatal(err)
	}
	anyNonZero := false
	for ci, co := range m.Cores {
		for xi, ctx := range co.Contexts() {
			gens := ctx.PoolGenerations()
			for _, g := range gens {
				if g > 0 {
					anyNonZero = true
				}
			}
			// Restoring the same snapshot again must reproduce the same
			// generations exactly.
			m2, err := Restore(spec, snapshot)
			if err != nil {
				t.Fatal(err)
			}
			gens2 := m2.Cores[ci].Contexts()[xi].PoolGenerations()
			if !reflect.DeepEqual(gens, gens2) {
				t.Fatalf("core %d ctx %d pool generations not reproducible", ci, xi)
			}
		}
	}
	if !anyNonZero {
		t.Fatal("no pool slot was ever recycled by cycle 3000; test is vacuous")
	}
}

// TestRestoreRejectsWrongSpec: a snapshot taken under one machine geometry
// must not silently restore into another.
func TestRestoreRejectsWrongSpec(t *testing.T) {
	snapshot, _ := runToCycle(t, snapSpec(ModeSRT, "compress"), 1500)
	if _, err := Restore(snapSpec(ModeCRT, "compress"), snapshot); err == nil {
		t.Error("restoring an SRT snapshot into a CRT machine should fail")
	}
	if _, err := Restore(snapSpec(ModeBase, "compress"), snapshot); err == nil {
		t.Error("restoring an SRT snapshot into a base machine should fail")
	}
}

// TestRestoreRejectsGarbage: malformed streams error out, never panic, and
// a stream in an earlier format version is refused as such.
func TestRestoreRejectsGarbage(t *testing.T) {
	spec := snapSpec(ModeSRT, "compress")
	snapshot, _ := runToCycle(t, spec, 1500)
	for _, n := range []int{0, 7, 8, 100, len(snapshot) / 2, len(snapshot) - 1} {
		if _, err := Restore(spec, snapshot[:n]); err == nil {
			t.Errorf("truncation to %d bytes restored successfully", n)
		}
	}
	v1 := bytes.Clone(snapshot)
	binary.LittleEndian.PutUint64(v1[8:], 1) // the version word follows the 8-byte magic
	if _, err := Restore(spec, v1); err == nil || !strings.Contains(err.Error(), "snapshot version 1") {
		t.Errorf("version-1 stream: err = %v, want a version error", err)
	}
}

// FuzzSnapshot feeds arbitrary bytes to RestoreState: it must reject or
// accept but never crash, and any accepted stream must re-serialize
// idempotently (restore → snapshot → restore → snapshot is a fixed point).
// Besides a freshly built machine, the corpus seeds a mid-run snapshot,
// whose caches and predictor tables hold live entries, so mutations reach
// the sparse-entry decode paths.
func FuzzSnapshot(f *testing.F) {
	spec := snapSpec(ModeSRT, "compress")
	m, err := Build(spec)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	mid, _ := runToCycle(f, spec, 1500)
	f.Add(seed)
	f.Add(mid)
	f.Add(seed[:len(seed)/2])
	f.Add(mid[:len(mid)/2])
	f.Add(seed[:9])
	f.Add([]byte("RMTSNAP1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RestoreState(data); err != nil {
			return
		}
		once, err := m.Snapshot()
		if err != nil {
			t.Fatalf("accepted stream failed to re-serialize: %v", err)
		}
		m2, err := Restore(spec, once)
		if err != nil {
			t.Fatalf("re-serialized stream failed to restore: %v", err)
		}
		twice, err := m2.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("snapshot not idempotent after one normalization")
		}
	})
}
