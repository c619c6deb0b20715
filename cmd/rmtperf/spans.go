package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one timed call into the system under test, recorded by the
// benchmark around a public function. Spans of one served request share
// a request id; a child names its parent span.
type span struct {
	ID, Parent int64
	Req        int64
	Name       string
	Lane       int
	Start, End time.Duration // since the log's origin
}

// spanLog keeps a traced phase's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: now()} }

func (l *spanLog) add(sp span) {
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// writeChrome renders the spans as Chrome trace_event JSON (complete "X"
// events, microsecond timestamps, one track per lane), which Perfetto and
// chrome://tracing load directly.
func (l *spanLog) writeChrome(w io.Writer) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, len(l.spans))
	for i, sp := range l.spans {
		events[i] = event{
			Name: sp.Name, Ph: "X", Pid: 1, Tid: sp.Lane,
			Ts:   float64(sp.Start.Nanoseconds()) / 1e3,
			Dur:  float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
			Args: map[string]int64{"id": sp.ID, "parent": sp.Parent, "req": sp.Req},
		}
	}
	l.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// lanes hands out the lowest free track number, so spans that overlap in
// time (concurrent requests) never share a trace track.
type lanes struct {
	mu   sync.Mutex
	busy []bool
}

func (l *lanes) acquire() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, b := range l.busy {
		if !b {
			l.busy[i] = true
			return i
		}
	}
	l.busy = append(l.busy, true)
	return len(l.busy) - 1
}

func (l *lanes) release(i int) {
	l.mu.Lock()
	l.busy[i] = false
	l.mu.Unlock()
}
