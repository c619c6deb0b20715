// Package stats provides the counters, distributions and derived metrics
// used by the evaluation: per-thread instruction/cycle accounting, IPC, the
// paper's SMT-Efficiency metric (the Snavely-Tullsen weighted speedup), and
// store-lifetime tracking for the store-queue pressure analysis.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a simple monotonic event counter.
type Counter uint64

// Inc adds 1.
func (c *Counter) Inc() { *c++ }

// Add adds n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the count.
func (c Counter) Value() uint64 { return uint64(c) }

// Mean tracks a running mean without storing samples.
type Mean struct {
	n   uint64
	sum float64
}

// Add records one sample.
func (m *Mean) Add(v float64) {
	m.n++
	m.sum += v
}

// N returns the sample count.
func (m *Mean) N() uint64 { return m.n }

// State exposes the accumulator internals for external serialization
// (machine-state snapshots). MeanFromState is its inverse.
func (m Mean) State() (n uint64, sum float64) { return m.n, m.sum }

// MeanFromState rebuilds a Mean from State's components.
func MeanFromState(n uint64, sum float64) Mean { return Mean{n: n, sum: sum} }

// Value returns the mean (0 for no samples).
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Histogram is a fixed-bucket histogram for small non-negative values
// (occupancies, latencies). Values beyond the last bucket are clamped into
// it.
type Histogram struct {
	buckets []uint64
	total   uint64
	sum     uint64
}

// NewHistogram returns a histogram with buckets [0, n).
func NewHistogram(n int) *Histogram {
	return &Histogram{buckets: make([]uint64, n)}
}

// Add records a sample.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
	h.total++
	h.sum += uint64(v)
}

// Total returns the sample count.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Buckets returns a copy of the bucket counts (index = sample value).
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// Mean returns the mean sample value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Percentile returns the p-th percentile (0 < p <= 100).
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.total)))
	var acc uint64
	for i, b := range h.buckets {
		acc += b
		if acc >= target {
			return i
		}
	}
	return len(h.buckets) - 1
}

// ThreadStats accumulates per-hardware-thread counters during a run.
type ThreadStats struct {
	Committed Counter // retired instructions
	Loads     Counter
	Stores    Counter
	Branches  Counter

	BranchMispredicts Counter // direction/target wrong at execute
	LineMispredicts   Counter // line predictor wrong, branch predictor right
	LineFetches       Counter // line-predictor-driven fetch chunks

	ICacheMisses Counter
	DCacheMisses Counter

	// SQFullStalls counts rename stalls due to a full store queue; the
	// central SRT pressure statistic.
	SQFullStalls Counter
	IQFullStalls Counter
	LQFullStalls Counter

	// StoreLifetime samples cycles from SQ entry (rename) to SQ release.
	StoreLifetime Mean
	// LVQWaits counts trailing loads that found their LVQ entry not yet
	// forwarded.
	LVQWaits Counter
}

// LineMispredictRate returns line-predictor mispredictions per fetch chunk.
func (t *ThreadStats) LineMispredictRate() float64 {
	if t.LineFetches == 0 {
		return 0
	}
	return float64(t.LineMispredicts) / float64(t.LineFetches)
}

// BranchMispredictRate returns mispredictions per branch.
func (t *ThreadStats) BranchMispredictRate() float64 {
	if t.Branches == 0 {
		return 0
	}
	return float64(t.BranchMispredicts) / float64(t.Branches)
}

// RunStats is the result of one simulated run.
type RunStats struct {
	Cycles  uint64
	Threads []*ThreadStats
	// LogicalIPC maps logical thread index -> committed instructions of
	// its (leading) copy divided by cycles.
	LogicalIPC []float64
}

// IPCOf returns the IPC of hardware thread i.
func (r *RunStats) IPCOf(i int) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Threads[i].Committed) / float64(r.Cycles)
}

// TotalCommitted sums committed instructions across all hardware threads.
func (r *RunStats) TotalCommitted() uint64 {
	var n uint64
	for _, t := range r.Threads {
		n += t.Committed.Value()
	}
	return n
}

// SMTEfficiency computes the paper's evaluation metric for one run: the
// arithmetic mean over logical threads of IPC(thread in this mode) /
// IPC(thread alone on the base machine). baseIPC[i] must be the
// single-thread base-machine IPC of logical thread i.
func SMTEfficiency(logicalIPC, baseIPC []float64) float64 {
	if len(logicalIPC) != len(baseIPC) || len(logicalIPC) == 0 {
		return 0
	}
	var sum float64
	for i := range logicalIPC {
		if baseIPC[i] == 0 {
			return 0
		}
		sum += logicalIPC[i] / baseIPC[i]
	}
	return sum / float64(len(logicalIPC))
}

// ArithMean returns the arithmetic mean of vs.
func ArithMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Table is a simple text table for experiment reports.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Grow preallocates storage for n additional rows. Experiment sweeps
// assemble tables of known size, so growing once up front keeps result
// assembly free of append reallocation.
func (t *Table) Grow(n int) {
	if cap(t.Rows)-len(t.Rows) >= n {
		return
	}
	rows := make([][]string, len(t.Rows), len(t.Rows)+n)
	copy(rows, t.Rows)
	t.Rows = rows
}

// AddRow appends a row; cells beyond len(Columns) are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		cells = cells[:len(t.Columns)]
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row formatting float cells with 3 decimals.
func (t *Table) AddRowf(label string, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.3f", v))
	}
	t.AddRow(cells...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := range t.Columns {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoted cells where
// needed), suitable for plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.Columns {
			if i > 0 {
				b.WriteByte(',')
			}
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// SortedKeys returns the sorted keys of a string-keyed float map; report
// output must be deterministic.
func SortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
