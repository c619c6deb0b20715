package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pipeline"
)

// TestSRTRFaultFreeRuns checks the recovery organisation completes a
// fault-free run with zero recoveries: the segmented checkpoint loop must
// be invisible when nothing goes wrong.
func TestSRTRFaultFreeRuns(t *testing.T) {
	m, err := Build(Spec{
		Mode: ModeSRTR, Programs: []string{"gcc"},
		Budget: 3000, Warmup: 1000,
		Config: pipeline.DefaultConfig(), PSR: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs[0].RVQ == nil {
		t.Fatal("SRTR machine built without an RVQ")
	}
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	if m.Recoveries != 0 || m.RecoveryCycles != 0 {
		t.Errorf("fault-free run recovered: %d rollbacks, %d cycles", m.Recoveries, m.RecoveryCycles)
	}
	if got := m.Pairs[0].RVQ.Mismatches.Value(); got != 0 {
		t.Errorf("fault-free RVQ mismatches = %d", got)
	}
	if m.Pairs[0].RVQ.Pushes.Value() == 0 {
		t.Error("RVQ saw no traffic")
	}
}

// TestSRTRFaultFreeMatchesSRTArch checks the two organisations commit the
// same architectural outcome: the RVQ changes timing, never values.
func TestSRTRFaultFreeMatchesSRTArch(t *testing.T) {
	digest := func(mode Mode) [32]byte {
		m, err := Build(Spec{
			Mode: mode, Programs: []string{"li"},
			Budget: 2000, Warmup: 500,
			Config: pipeline.DefaultConfig(), PSR: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.ArchDigest()
	}
	if digest(ModeSRT) != digest(ModeSRTR) {
		t.Error("SRTR fault-free architectural state diverges from SRT")
	}
}

// TestAdaptiveZeroThresholdIsSRT checks θ = 0 disables gating entirely:
// the machine must be cycle-identical to plain SRT, anchoring the
// coverage/slowdown frontier at the SRT point.
func TestAdaptiveZeroThresholdIsSRT(t *testing.T) {
	run := func(mode Mode, theta float64) uint64 {
		m, err := Build(Spec{
			Mode: mode, Programs: []string{"compress"},
			Budget: 2000, Warmup: 500,
			Config: pipeline.DefaultConfig(), PSR: true,
			AdaptiveThreshold: theta,
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
	if srt, ad := run(ModeSRT, 0), run(ModeAdaptive, 0); srt != ad {
		t.Errorf("adaptive θ=0 cycles = %d, SRT = %d", ad, srt)
	}
}

// TestAdaptiveGatingRuns checks a gated machine completes, actually
// excludes some instructions from the sphere, and commits the same
// architectural outcome as SRT (fault-free partial redundancy changes
// protection, not semantics).
func TestAdaptiveGatingRuns(t *testing.T) {
	srt, err := Build(Spec{
		Mode: ModeSRT, Programs: []string{"gcc"},
		Budget: 2000, Warmup: 500,
		Config: pipeline.DefaultConfig(), PSR: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srt.Run(); err != nil {
		t.Fatal(err)
	}
	m, err := Build(Spec{
		Mode: ModeAdaptive, Programs: []string{"gcc"},
		Budget: 2000, Warmup: 500,
		Config: pipeline.DefaultConfig(), PSR: true,
		AdaptiveThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pair := m.Pairs[0]
	if !pair.Gated() {
		t.Fatal("θ=0.5 built an ungated pair")
	}
	unprotected := 0
	for _, p := range pair.Protect {
		if !p {
			unprotected++
		}
	}
	if unprotected == 0 {
		t.Fatal("θ=0.5 protects every pc; gating untested")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if srt.ArchDigest() != m.ArchDigest() {
		t.Error("adaptive fault-free architectural state diverges from SRT")
	}
}

// TestSRTRCheckpointIntervalSweep checks the recovery loop is stable
// across checkpoint intervals, including ones that do not divide the
// fault engine's 1024-cycle grid.
func TestSRTRCheckpointIntervalSweep(t *testing.T) {
	for _, interval := range []uint64{256, 512, 1024} {
		m, err := Build(Spec{
			Mode: ModeSRTR, Programs: []string{"compress"},
			Budget: 1500, Warmup: 500,
			Config: pipeline.DefaultConfig(), PSR: true,
			CheckpointInterval: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Errorf("interval %d: %v", interval, err)
		}
	}
}

// TestSRTRResumedListMatchesUnbrokenRun: a machine restored from a
// mid-run snapshot of a fault-free SRTR run and resumed with the
// checkpoint list in force at that snapshot captures, validates and drops
// the same checkpoints at the same cycles as the run that never stopped,
// and ends in the same state. The intervals put the snapshot on a
// checkpoint boundary (256, 1024) and between two (2048: the list in
// force at cycle 3072 is the one recorded at 2048).
func TestSRTRResumedListMatchesUnbrokenRun(t *testing.T) {
	const mid = 3072
	for _, interval := range []uint64{256, 1024, 2048} {
		t.Run(fmt.Sprint(interval), func(t *testing.T) {
			spec := snapSpec(ModeSRTR, "gcc", "swim")
			spec.Budget, spec.Warmup = 8000, 2000
			spec.CheckpointInterval = interval
			// record notes the list at every boundary from mid on.
			record := func(m *Machine, lists *[]CheckpointList) {
				m.OnCycle = func(cycle uint64) error {
					if cycle >= mid && cycle%interval == 0 {
						*lists = append(*lists, m.Checkpoints())
					}
					return nil
				}
			}

			unbroken, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			var want []CheckpointList
			record(unbroken, &want)
			var snap []byte
			var list CheckpointList
			next := unbroken.OnCycle
			unbroken.OnCycle = func(cycle uint64) error {
				if cycle == mid {
					snap, list = unbroken.AppendSnapshot(nil), unbroken.Checkpoints()
				}
				return next(cycle)
			}
			if _, err := unbroken.Run(); err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatalf("run ended before cycle %d", mid)
			}

			resumed, err := Restore(spec, snap)
			if err != nil {
				t.Fatal(err)
			}
			resumed.ResumeCheckpoints(list)
			var got []CheckpointList
			record(resumed, &got)
			if _, err := resumed.Run(); err != nil {
				t.Fatal(err)
			}
			if len(want) < 3 {
				t.Fatalf("only %d boundaries past cycle %d; the run is too short to validate anything", len(want), mid)
			}
			first, last := want[0].ckpts[0], want[len(want)-1].ckpts[0]
			if !last.validated || last.cycle <= first.cycle {
				t.Fatalf("the unbroken run validated nothing past cycle %d: rollback target %d, then %d", mid, first.cycle, last.cycle)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed run's checkpoint lists differ from the unbroken run's:\ngot  %+v\nwant %+v", got, want)
			}
			unbroken.OnCycle, resumed.OnCycle = nil, nil
			a, _ := unbroken.Snapshot()
			b, _ := resumed.Snapshot()
			if !bytes.Equal(a, b) {
				t.Error("resumed run ends in a different state from the unbroken run")
			}
		})
	}
}
