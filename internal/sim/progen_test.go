package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/vmdiff"
)

// The generated-corpus differential battery: the fixed-seed 64-kernel
// corpus (progen.CorpusSeeds(genCorpusSeed, 64), the constant recorded in
// EXPERIMENTS.md) runs through the same metamorphic oracle as the
// hand-written suite — every machine organisation is pure timing, so each
// copy's architectural state must be bit-identical to a functional replay
// — plus snapshot/restore byte-identity. Randomly generated kernels reach
// comparator/replication/forwarding interleavings the 18 curated kernels
// cannot.

const genCorpusSeed = 0xC0FFEE

func genCorpus(n int) []string {
	seeds := progen.CorpusSeeds(genCorpusSeed, n)
	names := make([]string, n)
	for i, s := range seeds {
		names[i] = progen.Name(s)
	}
	return names
}

// TestGenMetamorphicSRT runs the full 64-kernel corpus as SRT pairs:
// lead and trail must both match the functional replay, and no
// comparator may fire fault-free.
func TestGenMetamorphicSRT(t *testing.T) {
	for _, name := range genCorpus(64) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := runMode(t, ModeSRT, []string{name})
			checkCopyAgainstReference(t, "srt/lead/"+name, name, m.Leads[0])
			checkCopyAgainstReference(t, "srt/trail/"+name, name, m.Trails[0])
			checkPairsClean(t, "srt/"+name, m)
		})
	}
}

// TestGenMetamorphicBase: the corpus under the unprotected base machine.
func TestGenMetamorphicBase(t *testing.T) {
	for _, name := range genCorpus(32) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := runMode(t, ModeBase, []string{name})
			checkCopyAgainstReference(t, "base/"+name, name, m.Leads[0])
		})
	}
}

// TestGenMetamorphicSRTR runs half the corpus as SRTR pairs: the register
// value queue and the segmented checkpoint/validation loop must be pure
// timing — both copies bit-identical to the functional replay, no
// comparator or RVQ mismatch, and zero rollbacks on a fault-free run.
func TestGenMetamorphicSRTR(t *testing.T) {
	for _, name := range genCorpus(32) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := runMode(t, ModeSRTR, []string{name})
			checkCopyAgainstReference(t, "srtr/lead/"+name, name, m.Leads[0])
			checkCopyAgainstReference(t, "srtr/trail/"+name, name, m.Trails[0])
			checkPairsClean(t, "srtr/"+name, m)
			if m.Recoveries != 0 || m.RecoveryCycles != 0 {
				t.Errorf("srtr/%s: fault-free run rolled back %d times", name, m.Recoveries)
			}
			if n := m.Pairs[0].RVQ.Mismatches.Value(); n != 0 {
				t.Errorf("srtr/%s: %d RVQ mismatches in a fault-free run", name, n)
			}
		})
	}
}

// TestGenMetamorphicAdaptive runs half the corpus under adaptive partial
// redundancy at θ = 0.5: gating removes instructions from the sphere of
// replication but never from execution, so both copies must still match
// the functional replay exactly and nothing may fire fault-free. The
// comparison-count floor from checkPairsClean is deliberately dropped — a
// generated kernel may legitimately have every store outside the sphere.
func TestGenMetamorphicAdaptive(t *testing.T) {
	for _, name := range genCorpus(32) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := Build(Spec{
				Mode: ModeAdaptive, Programs: []string{name},
				Budget: 1500, Warmup: 500,
				Config: pipeline.DefaultConfig(), PSR: true,
				AdaptiveThreshold: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			checkCopyAgainstReference(t, "adaptive/lead/"+name, name, m.Leads[0])
			checkCopyAgainstReference(t, "adaptive/trail/"+name, name, m.Trails[0])
			for i, p := range m.Pairs {
				if n := p.Cmp.Mismatches.Value(); n != 0 {
					t.Errorf("adaptive/%s pair %d: %d store mismatches fault-free", name, i, n)
				}
				if n := p.LVQ.AddrMismatches.Value(); n != 0 {
					t.Errorf("adaptive/%s pair %d: %d LVQ address mismatches", name, i, n)
				}
				if n := len(p.Detected); n != 0 {
					t.Errorf("adaptive/%s pair %d: %d spurious detections", name, i, n)
				}
			}
		})
	}
}

// TestGenMetamorphicCRTMixes: randomized 2-pair cross-coupled CRT mixes —
// each core runs one program's leading thread and the other's trailing
// thread, the shape the paper's multi-program CRT figures measure.
func TestGenMetamorphicCRTMixes(t *testing.T) {
	for _, progs := range progen.MixPairs(genCorpusSeed, 4) {
		progs := progs
		t.Run(fmt.Sprintf("%s+%s", progs[0], progs[1]), func(t *testing.T) {
			t.Parallel()
			m := runMode(t, ModeCRT, progs[:])
			for i, name := range progs {
				checkCopyAgainstReference(t, "crt/lead/"+name, name, m.Leads[i])
				checkCopyAgainstReference(t, "crt/trail/"+name, name, m.Trails[i])
			}
			checkPairsClean(t, "crt", m)
		})
	}
}

// TestGenFourContextSMT: randomized 4-program mixes filling all four SMT
// contexts of the base machine; every context must still compute its
// program's exact functional state.
func TestGenFourContextSMT(t *testing.T) {
	for _, progs := range progen.MixQuads(genCorpusSeed, 2) {
		progs := progs
		t.Run(progs[0]+"...", func(t *testing.T) {
			t.Parallel()
			m := runMode(t, ModeBase, progs[:])
			for i, name := range progs {
				checkCopyAgainstReference(t, "smt4/"+name, name, m.Leads[i])
			}
		})
	}
}

// TestGenBatchLockstep: the batched SoA functional engine over the full
// 64-kernel corpus — each kernel as an 8-lane vm.Batch (lane 0 fault-free,
// the rest under per-lane injection) — must stay bit-equal to independent
// scalar oracle threads after every step. The harness lives in
// internal/vmdiff; gen-battery runs this under the race detector.
func TestGenBatchLockstep(t *testing.T) {
	for _, seed := range progen.CorpusSeeds(genCorpusSeed, 64) {
		seed := seed
		t.Run(progen.Name(seed), func(t *testing.T) {
			t.Parallel()
			k := progen.Generate(seed)
			if err := vmdiff.VerifyKernel(k, 8, seed, 4*k.MaxDynInstr+64); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGenSnapshotByteIdentity: for generated kernels, a machine restored
// from a mid-run snapshot and run to completion must produce identical
// stats and a byte-identical final snapshot to the uninterrupted run —
// the snapshot substrate cannot depend on the workload being one of the
// curated kernels.
func TestGenSnapshotByteIdentity(t *testing.T) {
	corpus := genCorpus(64)
	cases := []struct {
		name  string
		mode  Mode
		theta float64
		progs []string
	}{
		{"srt", ModeSRT, 0, []string{corpus[0]}},
		{"srt two programs", ModeSRT, 0, []string{corpus[1], corpus[2]}},
		{"crt pair", ModeCRT, 0, []string{corpus[3], corpus[4]}},
		{"base", ModeBase, 0, []string{corpus[5]}},
		// The restore point (cycle 800) is mid-checkpoint-interval: the
		// restored SRTR machine re-enters the recovery loop off the grid
		// and must still reproduce the uninterrupted run exactly.
		{"srtr", ModeSRTR, 0, []string{corpus[6]}},
		{"adaptive", ModeAdaptive, 0.5, []string{corpus[7]}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			spec := snapSpec(tc.mode, tc.progs...)
			spec.AdaptiveThreshold = tc.theta
			ref, err := Build(spec)
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
			mid, _ := runToCycle(t, spec, 800)
			restored, err := Restore(spec, mid)
			if err != nil {
				t.Fatal(err)
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
				t.Errorf("final snapshots differ: ref %d bytes, got %d", len(refSnap), len(gotSnap))
			}
		})
	}
}

// FuzzGenModeEquivalence extends the generator fuzz contract (progen's
// FuzzGenerate) to the recovery and partial-redundancy organisations: for
// ANY seed, the generated kernel run under SRTR and under adaptive gating
// must commit the same architectural digest as plain SRT, with zero
// fault-free rollbacks. Any divergence is a mode-implementation bug and
// the seed is its own minimized reproducer.
func FuzzGenModeEquivalence(f *testing.F) {
	for _, seed := range progen.CorpusSeeds(genCorpusSeed, 8) {
		f.Add(seed)
	}
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Add(uint64(1) << 63)
	f.Fuzz(func(t *testing.T, seed uint64) {
		name := progen.Name(seed)
		digest := func(mode Mode, theta float64) [32]byte {
			m, err := Build(Spec{
				Mode: mode, Programs: []string{name},
				Budget: 800, Warmup: 200,
				Config: pipeline.DefaultConfig(), PSR: true,
				AdaptiveThreshold: theta,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if m.Recoveries != 0 {
				t.Fatalf("%v: fault-free run rolled back %d times", mode, m.Recoveries)
			}
			return m.ArchDigest()
		}
		srt := digest(ModeSRT, 0)
		if got := digest(ModeSRTR, 0); got != srt {
			t.Error("SRTR architectural outcome diverges from SRT")
		}
		if got := digest(ModeAdaptive, 0.5); got != srt {
			t.Error("adaptive architectural outcome diverges from SRT")
		}
	})
}

// FuzzGenLiveness: every paired mode must finish any generated kernel
// without tripping the watchdog. On each seed's kernel, a leading load
// that partially overlaps an older store waits for that store to drain,
// and the store, retired before the load dispatched, once waited for its
// comparison in the unflushed chunk that only the load's retirement would
// push (§4.4.2's partial-forward deadlock): every paired mode ran into a
// DeadlockError.
func FuzzGenLiveness(f *testing.F) {
	f.Add(uint64(15549336683840783627))
	f.Add(uint64(11946754872439844712))
	f.Add(uint64(14646540178394605744))
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, mode := range Modes() {
			if !mode.Paired() {
				continue
			}
			m, err := Build(Spec{
				Mode: mode, Programs: []string{progen.Name(seed)},
				Budget: 6000, Warmup: 3000,
				Config: pipeline.DefaultConfig(), PSR: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run()
			if dead := (*pipeline.DeadlockError)(nil); errors.As(err, &dead) {
				t.Errorf("%v: %s: no forward progress by cycle %d", mode, progen.Name(seed), dead.Cycle)
			} else if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
		}
	})
}

// TestGenEarlyHaltCompletesRun is the regression for the sim-layer
// completion bug the generator shook out: finishedAll ignored
// Arch.Halted, so a kernel that halts before committing its budget made
// Run report a spurious cycle-cap failure even though the pipeline had
// drained cleanly. Every generated kernel halts, so any budget beyond a
// kernel's dynamic length reproduces it. The minimized form is checked
// into internal/program/testdata/earlyhalt.rmtbin.
func TestGenEarlyHaltCompletesRun(t *testing.T) {
	name := genCorpus(1)[0]
	seed, _ := progen.ParseName(name)
	prof, err := progen.Characterize(progen.Generate(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeBase, ModeSRT} {
		m, err := Build(Spec{
			Mode:     mode,
			Programs: []string{name},
			Budget:   prof.DynInstrs + 5000, // more budget than the kernel has instructions
			Warmup:   500,
			Config:   pipeline.DefaultConfig(),
			PSR:      mode == ModeSRT,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := m.Run()
		if err != nil {
			t.Fatalf("%v: halting kernel reported as incomplete: %v", mode, err)
		}
		if got := m.Leads[0].Arch.Seq; got != prof.DynInstrs {
			t.Errorf("%v: halted at seq %d, functional replay says %d", mode, got, prof.DynInstrs)
		}
		if rs.Cycles == 0 {
			t.Errorf("%v: zero-cycle run", mode)
		}
	}
}
