package trace_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/vm"
)

// traceLoop runs a short loop on one core with l attached to it and
// returns the core.
func traceLoop(t *testing.T, l *trace.EventLog) *pipeline.Core {
	t.Helper()
	b := isa.NewBuilder("t")
	b.Ldi(isa.R1, 5)
	b.Label("top")
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, "top")
	b.Halt()
	prog := b.MustFinish()

	core := pipeline.NewCore(0, pipeline.DefaultConfig(), nil)
	memImg := vm.NewMemory()
	vm.Load(prog, memImg)
	ctx := pipeline.NewContext(pipeline.RoleSingle, 0, vm.NewThread(0, prog, memImg), 1000)
	core.AddContext(ctx)
	core.FinalizeQueues()

	core.Trace = l.CoreHook(0)
	m := &pipeline.Machine{Cores: []*pipeline.Core{core}}
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	return core
}

// TestFormatRendersPipeline draws a short loop on one core and checks the
// diagram against testdata/pipeline.golden, recorded when the diagram had
// a collector of its own, so folding it into the EventLog moved no byte.
func TestFormatRendersPipeline(t *testing.T) {
	l := trace.NewEventLog(0)
	traceLoop(t, l)
	for _, ev := range l.Events() {
		if ev.Kind != trace.KindInstr {
			continue
		}
		if !(ev.Cycle <= ev.Dispatch && ev.Dispatch <= ev.Issue && ev.Issue < ev.Done && ev.Done <= ev.End) {
			t.Errorf("stage order violated for seq %d: F%d D%d I%d C%d X%d",
				ev.Seq, ev.Cycle, ev.Dispatch, ev.Issue, ev.Done, ev.End)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "pipeline.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.Format(l.Events(), 64); got != string(want) {
		t.Errorf("diagram drifted from testdata/pipeline.golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestKeepFirstStopsRecording: a log told to keep the first n instruction
// events of core 0 stops recording there, and Format draws the same n
// lines from it as from the full log. The loop retires 12 instructions,
// so n=64 keeps the whole log; a log that stopped has the core drop its
// hook, so the rest of the run builds no events.
func TestKeepFirstStopsRecording(t *testing.T) {
	full := trace.NewEventLog(0)
	traceLoop(t, full)
	for _, n := range []int{1, 5, 64} {
		kept := trace.NewEventLog(0)
		kept.KeepFirst(n)
		if core := traceLoop(t, kept); (core.Trace == nil) != (n < 12) {
			t.Errorf("n=%d: core kept its hook %v after the log stopped", n, core.Trace != nil)
		}
		if got, want := trace.Format(kept.Events(), n), trace.Format(full.Events(), n); got != want {
			t.Errorf("n=%d: diagram differs from the full log's\n--- got ---\n%s\n--- want ---\n%s", n, got, want)
		}
		instrs := 0
		for _, ev := range kept.Events() {
			if ev.Kind == trace.KindInstr {
				instrs++
			}
		}
		switch {
		case n < 64 && (instrs != n || len(kept.Events()) >= len(full.Events())):
			t.Errorf("n=%d: kept %d instruction events of %d events, full log %d events",
				n, instrs, len(kept.Events()), len(full.Events()))
		case n == 64 && len(kept.Events()) != len(full.Events()):
			t.Errorf("n=%d, more than the run retires: kept %d events, full log %d", n, len(kept.Events()), len(full.Events()))
		}
	}
}

// TestFormatRespectsCount: Format draws the first n instruction events of
// core 0 and skips point events and other cores.
func TestFormatRespectsCount(t *testing.T) {
	l := trace.NewEventLog(0)
	for core := 1; core >= 0; core-- {
		h := l.CoreHook(core)
		for seq := uint64(0); seq < 10; seq++ {
			h(trace.Event{Kind: trace.KindSquash, TID: core, Seq: seq})
			h(trace.Event{Kind: trace.KindInstr, End: 1, TID: core, Seq: seq})
		}
	}
	out := trace.Format(l.Events(), 2)
	if got := strings.Count(out, "\n"); got != 2 || strings.Count(out, "t0 ") != 2 {
		t.Errorf("want 2 lines of core 0's thread 0, got:\n%s", out)
	}
}
