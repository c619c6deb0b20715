package trace

import (
	"encoding/json"
	"io"
)

// EventKind classifies a structured trace event.
type EventKind uint8

// Event kinds.
const (
	// KindInstr is one dynamic instruction's full fetch-to-retire span.
	KindInstr EventKind = iota
	// KindSquash marks a mispredicted branch resolving (wrong-path bubble
	// ends, fetch restarts).
	KindSquash
	// KindCompare marks a sphere-of-replication output comparison (store
	// comparator, LVQ address check, or trailing-fetch divergence).
	KindCompare
	// KindFaultInject marks a fault-injection campaign corrupting one
	// instruction's result.
	KindFaultInject
)

func (k EventKind) String() string {
	switch k {
	case KindInstr:
		return "instr"
	case KindSquash:
		return "squash"
	case KindCompare:
		return "compare"
	case KindFaultInject:
		return "fault-inject"
	}
	return "unknown"
}

// Event is one structured trace record. Instruction events span
// [Cycle, End]; point events (squash, compare, fault-inject) carry only
// Cycle.
type Event struct {
	Kind EventKind
	Core int
	TID  int
	// Cycle is the event time: the fetch cycle for instruction events, the
	// occurrence cycle for point events.
	Cycle uint64
	// End is the retire cycle (instruction events only).
	End  uint64
	Seq  uint64
	PC   uint64
	Text string
	// Dispatch, Issue and Done are the cycles an instruction left the
	// rate-matching buffer, issued and completed (instruction events
	// only). Format draws them; the Chrome export does not.
	Dispatch, Issue, Done uint64
	// Mismatch is set on compare events that detected a divergence.
	Mismatch bool
}

// EventLog accumulates structured events from one or more cores. It is not
// safe for concurrent use; each simulated machine runs in a single
// goroutine, so event order — and therefore the exported byte stream — is
// deterministic for a given configuration.
type EventLog struct {
	// Cap bounds the number of stored events (0 = 1 << 20). Once full,
	// further events are counted but dropped.
	Cap     int
	Dropped uint64

	evs []Event
	// keep, when > 0, ends recording once core0 (the count of core 0's
	// instruction events) reaches it (KeepFirst).
	keep, core0 int
}

// NewEventLog returns a log holding up to cap events (0 = 1<<20).
func NewEventLog(cap int) *EventLog {
	if cap <= 0 {
		cap = 1 << 20
	}
	return &EventLog{Cap: cap}
}

// add appends an event, honouring the cap.
func (l *EventLog) add(ev Event) {
	if len(l.evs) >= l.Cap {
		l.Dropped++
		return
	}
	l.evs = append(l.evs, ev)
}

// KeepFirst makes the log stop recording once core 0 has n instruction
// events, which is all Format(l.Events(), n) draws: a log that only feeds
// that diagram then stops growing with the run. The events it keeps are
// the ones a full log holds first, so the diagram is the same.
func (l *EventLog) KeepFirst(n int) { l.keep = n }

// Inject records a fault-injection event (called by the fault package when
// a campaign corrupts an instruction's result).
func (l *EventLog) Inject(core, tid int, cycle, seq, pc uint64, text string) {
	l.add(Event{Kind: KindFaultInject, Core: core, TID: tid,
		Cycle: cycle, Seq: seq, PC: pc, Text: text})
}

// Events returns the stored events in emission order. Instruction events
// appear at their retire point; instructions still in flight at the end of
// a run are not included.
func (l *EventLog) Events() []Event { return l.evs }

// CoreHook returns the function to install as pipeline.Core.Trace for the
// core with the given ID: it stamps each event with the core and records
// it.
func (l *EventLog) CoreHook(core int) func(ev Event) {
	return func(ev Event) {
		if l.keep > 0 && l.core0 >= l.keep {
			return
		}
		ev.Core = core
		l.add(ev)
		if ev.Kind == KindInstr && core == 0 {
			l.core0++
		}
	}
}

// chromeEvent is one entry of the Chrome trace_event JSON format
// (consumed by Perfetto / chrome://tracing). Field order here fixes the
// exported byte layout.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeJSON exports the log in Chrome trace_event JSON format: one
// "X" (complete) event per retired instruction spanning fetch to retire,
// and "i" (instant) events for squashes, comparisons and fault injections.
// Cycles map to microseconds of trace time; pid is the core, tid the
// hardware thread. Output is deterministic: emission order and fixed field
// order only.
func (l *EventLog) WriteChromeJSON(w io.Writer) error {
	ct := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(l.evs)), DisplayTimeUnit: "ns"}
	for _, ev := range l.evs {
		ce := chromeEvent{
			Name: ev.Text,
			Cat:  ev.Kind.String(),
			TS:   ev.Cycle,
			PID:  ev.Core,
			TID:  ev.TID,
			Args: map[string]any{"seq": ev.Seq, "pc": ev.PC},
		}
		switch ev.Kind {
		case KindInstr:
			ce.Phase = "X"
			dur := ev.End - ev.Cycle
			if dur == 0 {
				dur = 1
			}
			ce.Dur = &dur
		default:
			ce.Phase = "i"
			ce.Scope = "t"
			ce.Name = ev.Kind.String()
			if ev.Text != "" {
				ce.Args["text"] = ev.Text
			}
			if ev.Kind == KindCompare {
				ce.Args["mismatch"] = ev.Mismatch
			}
		}
		ct.TraceEvents = append(ct.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}
