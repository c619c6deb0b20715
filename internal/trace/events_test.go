package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/pipeline"
)

func TestEventLogFoldsInstrSpans(t *testing.T) {
	l := NewEventLog(0)
	hook := l.CoreHook(0)
	hook(pipeline.TraceEvent{Cycle: 10, TID: 1, Seq: 5, PC: 7, Text: "add", Stage: pipeline.StageFetch})
	hook(pipeline.TraceEvent{Cycle: 12, TID: 1, Seq: 5, Stage: pipeline.StageIssue})
	hook(pipeline.TraceEvent{Cycle: 20, TID: 1, Seq: 5, Stage: pipeline.StageRetire})
	hook(pipeline.TraceEvent{Cycle: 15, TID: 1, Seq: 6, PC: 8, Text: "br", Stage: pipeline.StageSquash})
	hook(pipeline.TraceEvent{Cycle: 16, TID: 1, Seq: 7, PC: 9, Text: "stq", Stage: pipeline.StageCompare, Mismatch: true})
	// A fetched-but-never-retired instruction stays pending.
	hook(pipeline.TraceEvent{Cycle: 30, TID: 1, Seq: 9, Stage: pipeline.StageFetch})

	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(evs), evs)
	}
	if evs[0].Kind != KindInstr || evs[0].Cycle != 10 || evs[0].Issue != 12 || evs[0].End != 20 || evs[0].Text != "add" {
		t.Errorf("instr span wrong: %+v", evs[0])
	}
	if evs[1].Kind != KindSquash || evs[1].Cycle != 15 {
		t.Errorf("squash wrong: %+v", evs[1])
	}
	if evs[2].Kind != KindCompare || !evs[2].Mismatch {
		t.Errorf("compare wrong: %+v", evs[2])
	}
}

func TestEventLogCapDrops(t *testing.T) {
	l := NewEventLog(2)
	for i := 0; i < 5; i++ {
		l.Inject(0, 0, uint64(i), 0, 0, "flip")
	}
	if len(l.Events()) != 2 || l.Dropped != 3 {
		t.Errorf("cap not honoured: len=%d dropped=%d", len(l.Events()), l.Dropped)
	}
}

func TestChromeJSONExport(t *testing.T) {
	l := NewEventLog(0)
	hook := l.CoreHook(2)
	hook(pipeline.TraceEvent{Cycle: 1, TID: 0, Seq: 1, PC: 4, Text: "ldq", Stage: pipeline.StageFetch})
	hook(pipeline.TraceEvent{Cycle: 9, TID: 0, Seq: 1, Stage: pipeline.StageRetire})
	l.Inject(2, 0, 5, 1, 4, "bit 3")
	hook(pipeline.TraceEvent{Cycle: 11, TID: 0, Seq: 2, PC: 5, Text: "stq", Stage: pipeline.StageCompare, Mismatch: false})

	var buf bytes.Buffer
	if err := l.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(doc.TraceEvents))
	}
	x := doc.TraceEvents[0]
	if x["ph"] != "X" || x["pid"] != float64(2) || x["ts"] != float64(1) || x["dur"] != float64(8) {
		t.Errorf("complete event wrong: %v", x)
	}
	for _, ev := range doc.TraceEvents[1:] {
		if ev["ph"] != "i" || ev["s"] != "t" {
			t.Errorf("instant event wrong: %v", ev)
		}
	}
	if doc.TraceEvents[2]["args"].(map[string]any)["mismatch"] != false {
		t.Errorf("compare args wrong: %v", doc.TraceEvents[2])
	}

	// Byte determinism: exporting twice is identical.
	var buf2 bytes.Buffer
	if err := l.WriteChromeJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("export is not byte-stable")
	}
}
