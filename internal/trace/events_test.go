package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

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
	hook(Event{Kind: KindInstr, Cycle: 1, End: 9, TID: 0, Seq: 1, PC: 4, Text: "ldq"})
	l.Inject(2, 0, 5, 1, 4, "bit 3")
	hook(Event{Kind: KindCompare, Cycle: 11, TID: 0, Seq: 2, PC: 5, Text: "stq"})

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
