package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/vm"
)

// TestFormatRendersPipeline draws a short loop on one core and checks the
// diagram against testdata/pipeline.golden, recorded when the diagram had
// a collector of its own, so folding it into the EventLog moved no byte.
func TestFormatRendersPipeline(t *testing.T) {
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

	l := NewEventLog(0)
	core.Trace = l.CoreHook(0)
	m := &pipeline.Machine{Cores: []*pipeline.Core{core}}
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}

	for _, ev := range l.Events() {
		if ev.Kind != KindInstr {
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
	if got := Format(l.Events(), 64); got != string(want) {
		t.Errorf("diagram drifted from testdata/pipeline.golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFormatRespectsCount: Format draws the first n instruction events of
// core 0 and skips point events and other cores.
func TestFormatRespectsCount(t *testing.T) {
	l := NewEventLog(0)
	for core := 1; core >= 0; core-- {
		h := l.CoreHook(core)
		for seq := uint64(0); seq < 10; seq++ {
			h(pipeline.TraceEvent{TID: core, Seq: seq, Stage: pipeline.StageFetch})
			h(pipeline.TraceEvent{TID: core, Seq: seq, Stage: pipeline.StageSquash})
			h(pipeline.TraceEvent{Cycle: 1, TID: core, Seq: seq, Stage: pipeline.StageRetire})
		}
	}
	out := Format(l.Events(), 2)
	if got := strings.Count(out, "\n"); got != 2 || strings.Count(out, "t0 ") != 2 {
		t.Errorf("want 2 lines of core 0's thread 0, got:\n%s", out)
	}
}
