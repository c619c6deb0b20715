package trace

import (
	"encoding/json"
	"io"

	"repro/internal/pipeline"
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

	evs     []Event
	pending map[instrKey]*Event
}

type instrKey struct {
	core int
	tid  int
	seq  uint64
}

// NewEventLog returns a log holding up to cap events (0 = 1<<20).
func NewEventLog(cap int) *EventLog {
	if cap <= 0 {
		cap = 1 << 20
	}
	return &EventLog{Cap: cap, pending: make(map[instrKey]*Event)}
}

// add appends an event, honouring the cap.
func (l *EventLog) add(ev Event) {
	if len(l.evs) >= l.Cap {
		l.Dropped++
		return
	}
	l.evs = append(l.evs, ev)
}

// Inject records a fault-injection event (called by the fault package when
// a campaign corrupts an instruction's result).
func (l *EventLog) Inject(core, tid int, cycle, seq, pc uint64, text string) {
	l.add(Event{Kind: KindFaultInject, Core: core, TID: tid,
		Cycle: cycle, Seq: seq, PC: pc, Text: text})
}

// Events returns the stored events in emission order. Instruction events
// appear at their retire point (when the span closes); unretired
// instructions at the end of a run are not included.
func (l *EventLog) Events() []Event { return l.evs }

// CoreHook returns the function to install as pipeline.Core.Trace for the
// core with the given ID. Stage events are folded into one spanning
// instruction event per dynamic instruction; squash and compare stages
// become point events.
func (l *EventLog) CoreHook(core int) func(ev pipeline.TraceEvent) {
	return func(ev pipeline.TraceEvent) {
		k := instrKey{core, ev.TID, ev.Seq}
		switch ev.Stage {
		case pipeline.StageFetch:
			l.pending[k] = &Event{
				Kind: KindInstr, Core: core, TID: ev.TID,
				Cycle: ev.Cycle, Seq: ev.Seq, PC: ev.PC, Text: ev.Text,
			}
		case pipeline.StageDispatch:
			if p := l.pending[k]; p != nil {
				p.Dispatch = ev.Cycle
			}
		case pipeline.StageIssue:
			if p := l.pending[k]; p != nil {
				p.Issue = ev.Cycle
			}
		case pipeline.StageDone:
			if p := l.pending[k]; p != nil {
				p.Done = ev.Cycle
			}
		case pipeline.StageRetire:
			if p := l.pending[k]; p != nil {
				p.End = ev.Cycle
				l.add(*p)
				delete(l.pending, k)
			}
		case pipeline.StageSquash:
			l.add(Event{Kind: KindSquash, Core: core, TID: ev.TID,
				Cycle: ev.Cycle, Seq: ev.Seq, PC: ev.PC, Text: ev.Text})
		case pipeline.StageCompare:
			l.add(Event{Kind: KindCompare, Core: core, TID: ev.TID,
				Cycle: ev.Cycle, Seq: ev.Seq, PC: ev.PC, Text: ev.Text,
				Mismatch: ev.Mismatch})
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
