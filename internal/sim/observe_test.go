package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// buildObserved assembles a small SRT machine with the full observability
// layer attached and runs it to completion.
func buildObserved(t *testing.T) (*Machine, *metrics.Registry, *trace.EventLog) {
	t.Helper()
	m, err := Build(Spec{
		Mode:     ModeSRT,
		Programs: []string{"compress"},
		Budget:   2000,
		Warmup:   1000,
		Config:   pipeline.DefaultConfig(),
		PSR:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := m.EnableMetrics()
	log := m.EnableTrace(0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m, reg, log
}

func TestMetricsCoverPipelineStructures(t *testing.T) {
	m, reg, _ := buildObserved(t)
	snap := reg.Snapshot(m.Cycles)

	leadLabels := metrics.Labels{"core": "0", "tid": "0", "role": "leading", "prog": "0"}
	if got, ok := snap.CounterValue("ctx.committed", leadLabels); !ok || got == 0 {
		t.Errorf("ctx.committed{leading} = %d, %v; want > 0", got, ok)
	}
	if got, ok := snap.CounterValue("cmp.comparisons", metrics.Labels{"pair": "0"}); !ok || got == 0 {
		t.Errorf("cmp.comparisons = %d, %v; want > 0", got, ok)
	}
	if got, ok := snap.CounterValue("cmp.mismatches", metrics.Labels{"pair": "0"}); !ok || got != 0 {
		t.Errorf("cmp.mismatches = %d, %v; want 0 in a fault-free run", got, ok)
	}
	if got, ok := snap.CounterValue("lvq.pushes", metrics.Labels{"pair": "0"}); !ok || got == 0 {
		t.Errorf("lvq.pushes = %d, %v; want > 0", got, ok)
	}
	// The per-cycle probe samples every context each cycle, so every
	// occupancy histogram holds exactly Cycles samples.
	v, ok := snap.Get("ctx.sq_occupancy", leadLabels)
	if !ok || v.Histogram == nil {
		t.Fatal("ctx.sq_occupancy{leading} missing")
	}
	if v.Histogram.Total != m.Cycles {
		t.Errorf("sq occupancy samples = %d, want cycles = %d", v.Histogram.Total, m.Cycles)
	}
}

func TestEventLogCapturesPipelineActivity(t *testing.T) {
	_, _, log := buildObserved(t)
	var instr, squash, compare, mismatches int
	for _, ev := range log.Events() {
		switch ev.Kind {
		case trace.KindInstr:
			instr++
			if ev.End < ev.Cycle {
				t.Fatalf("instruction span ends before it starts: %+v", ev)
			}
		case trace.KindSquash:
			squash++
		case trace.KindCompare:
			compare++
			if ev.Mismatch {
				mismatches++
			}
		}
	}
	if instr == 0 || squash == 0 || compare == 0 {
		t.Errorf("event mix instr=%d squash=%d compare=%d; want all > 0", instr, squash, compare)
	}
	if mismatches != 0 {
		t.Errorf("%d compare mismatches in a fault-free run", mismatches)
	}
}

func TestObservabilityArtifactsDeterministic(t *testing.T) {
	m1, reg1, log1 := buildObserved(t)
	m2, reg2, log2 := buildObserved(t)

	var ma, mb bytes.Buffer
	if err := reg1.Snapshot(m1.Cycles).WriteJSON(&ma); err != nil {
		t.Fatal(err)
	}
	if err := reg2.Snapshot(m2.Cycles).WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ma.Bytes(), mb.Bytes()) {
		t.Error("metrics snapshots of identical runs differ")
	}

	var ta, tb bytes.Buffer
	if err := log1.WriteChromeJSON(&ta); err != nil {
		t.Fatal(err)
	}
	if err := log2.WriteChromeJSON(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Error("event traces of identical runs differ")
	}
}

// TestResumedTraceKeepsInFlightInstructions: the event log records each
// instruction's span from the cycles the instruction itself carries, so a
// traced run resumed from a mid-run snapshot records exactly the spans the
// uninterrupted run records from the snapshot cycle on, the instructions
// in flight at the snapshot included.
func TestResumedTraceKeepsInFlightInstructions(t *testing.T) {
	const at = 1500
	for _, mode := range Modes() {
		spec := gateSpec(mode, 3000, 1000, pipeline.DefaultConfig())
		t.Run(mode.String(), func(t *testing.T) {
			m, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			full := m.EnableTrace(0)
			var snapshot []byte
			m.OnCycle = func(cycle uint64) error {
				if cycle == at {
					snapshot, err = m.Snapshot()
					return err
				}
				return nil
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if snapshot == nil {
				t.Fatalf("run finished before cycle %d", at)
			}
			resumed, err := Restore(spec, snapshot)
			if err != nil {
				t.Fatal(err)
			}
			tail := resumed.EnableTrace(0)
			if _, err := resumed.Run(); err != nil {
				t.Fatal(err)
			}
			var want []trace.Event
			for _, ev := range full.Events() {
				if ev.Kind == trace.KindInstr && ev.End >= at {
					want = append(want, ev)
				}
			}
			var got []trace.Event
			for _, ev := range tail.Events() {
				if ev.Kind == trace.KindInstr {
					got = append(got, ev)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed run records %d instruction spans, the uninterrupted run %d from cycle %d on",
					len(got), len(want), at)
			}
		})
	}
}
