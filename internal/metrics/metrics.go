// Package metrics is the simulator's typed metric registry: pipeline
// structures register counters, gauges and histograms per core / per thread
// / per pair, and a caller snapshots the whole registry at a cycle of its
// choosing into a stable, machine-readable JSON document.
//
// Instruments are read through closures at snapshot time, so registration
// costs nothing on the simulated fast path: the pipeline keeps counting in
// its own structures and the registry samples them when asked. A registry
// belongs to exactly one machine (one goroutine); snapshots are pure
// functions of simulation state, so their bytes are identical at any sweep
// parallelism.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Labels distinguish instruments sharing a name (core, thread, pair, ...).
type Labels map[string]string

// canon renders labels canonically: sorted key=value pairs joined by ','.
func (l Labels) canon() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+l[k])
	}
	return strings.Join(parts, ",")
}

// clone copies the labels so later caller mutation cannot skew a snapshot.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// HistogramValue is one histogram's state at snapshot time.
type HistogramValue struct {
	// Buckets[i] counts samples of value i (the last bucket also holds
	// everything clamped into it).
	Buckets []uint64 `json:"buckets"`
	// Total is the sample count, Sum the sum of sample values.
	Total uint64 `json:"total"`
	Sum   uint64 `json:"sum"`
}

// Mean returns the mean sample value (0 for no samples).
func (h HistogramValue) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Total)
}

// instrument is one registered metric with its read closure.
type instrument struct {
	name      string
	labels    Labels
	kind      string
	readCount func() uint64
	readGauge func() float64
	readHist  func() HistogramValue
}

// Instrument kinds as they appear in the JSON export.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Registry holds the instruments of one simulated machine.
type Registry struct {
	byKey map[string]*instrument
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byKey: make(map[string]*instrument)}
}

func (r *Registry) add(ins *instrument) {
	key := ins.name + "{" + ins.labels.canon() + "}"
	if _, dup := r.byKey[key]; dup {
		panic(fmt.Sprintf("metrics: duplicate instrument %s", key))
	}
	r.byKey[key] = ins
}

// Counter registers a monotonic counter read through fn at snapshot time.
func (r *Registry) Counter(name string, labels Labels, fn func() uint64) {
	r.add(&instrument{name: name, labels: labels.clone(), kind: KindCounter, readCount: fn})
}

// Gauge registers an instantaneous value read through fn at snapshot time.
func (r *Registry) Gauge(name string, labels Labels, fn func() float64) {
	r.add(&instrument{name: name, labels: labels.clone(), kind: KindGauge, readGauge: fn})
}

// Histogram registers a distribution read through fn at snapshot time.
func (r *Registry) Histogram(name string, labels Labels, fn func() HistogramValue) {
	r.add(&instrument{name: name, labels: labels.clone(), kind: KindHistogram, readHist: fn})
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int { return len(r.byKey) }

// Value is one instrument's sampled state inside a Snapshot. Exactly one of
// Counter/Gauge/Histogram is set, matching Kind.
type Value struct {
	Name      string          `json:"name"`
	Labels    Labels          `json:"labels,omitempty"`
	Kind      string          `json:"kind"`
	Counter   *uint64         `json:"counter,omitempty"`
	Gauge     *float64        `json:"gauge,omitempty"`
	Histogram *HistogramValue `json:"histogram,omitempty"`
}

// key orders values inside a snapshot.
func (v Value) key() string { return v.Name + "{" + v.Labels.canon() + "}" }

// Snapshot is the registry's state at one cycle.
type Snapshot struct {
	// Cycle is the simulation cycle the snapshot was taken at.
	Cycle uint64 `json:"cycle"`
	// Metrics is sorted by (name, canonical labels) — the export is stable.
	Metrics []Value `json:"metrics"`
}

// Snapshot samples every instrument. The result is independent of
// registration order: values are sorted by name then canonical labels.
func (r *Registry) Snapshot(cycle uint64) *Snapshot {
	s := &Snapshot{Cycle: cycle, Metrics: make([]Value, 0, len(r.byKey))}
	for _, ins := range r.byKey { // values are collected then sorted by key below; order-independent
		v := Value{Name: ins.name, Labels: ins.labels, Kind: ins.kind}
		switch ins.kind {
		case KindCounter:
			c := ins.readCount()
			v.Counter = &c
		case KindGauge:
			g := ins.readGauge()
			v.Gauge = &g
		case KindHistogram:
			h := ins.readHist()
			v.Histogram = &h
		}
		s.Metrics = append(s.Metrics, v)
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].key() < s.Metrics[j].key() })
	return s
}

// Get returns the snapshot's value for an instrument, by name and labels.
func (s *Snapshot) Get(name string, labels Labels) (Value, bool) {
	want := Value{Name: name, Labels: labels}.key()
	for _, v := range s.Metrics {
		if v.key() == want {
			return v, true
		}
	}
	return Value{}, false
}

// CounterValue returns a counter's sampled count (0, false if absent or not
// a counter).
func (s *Snapshot) CounterValue(name string, labels Labels) (uint64, bool) {
	v, ok := s.Get(name, labels)
	if !ok || v.Counter == nil {
		return 0, false
	}
	return *v.Counter, true
}

// MarshalJSON renders the snapshot. encoding/json sorts map keys, so label
// maps serialise deterministically; metric order is fixed by Snapshot.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot // shed the method to avoid recursion
	return json.Marshal((*alias)(s))
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline —
// the byte-stable artifact rmtsim -metrics emits.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
