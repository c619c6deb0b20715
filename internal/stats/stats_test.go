package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Error("empty mean should be 0")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		m.Add(v)
	}
	if m.Value() != 2.5 || m.N() != 4 {
		t.Errorf("mean = %v n = %d", m.Value(), m.N())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 100; i++ {
		h.Add(i % 10)
	}
	if h.Total() != 100 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Mean() != 4.5 {
		t.Errorf("mean = %v, want 4.5", h.Mean())
	}
	if p := h.Percentile(50); p != 4 {
		t.Errorf("p50 = %d, want 4", p)
	}
	if p := h.Percentile(100); p != 9 {
		t.Errorf("p100 = %d, want 9", p)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(4)
	h.Add(-5)
	h.Add(100)
	if h.Total() != 2 {
		t.Errorf("total = %d", h.Total())
	}
	if p := h.Percentile(100); p != 3 {
		t.Errorf("clamped max percentile = %d", p)
	}
}

func TestSMTEfficiency(t *testing.T) {
	// Two threads at half their solo IPC: efficiency 0.5.
	got := SMTEfficiency([]float64{1.0, 2.0}, []float64{2.0, 4.0})
	if got != 0.5 {
		t.Errorf("efficiency = %v, want 0.5", got)
	}
	if SMTEfficiency([]float64{1}, []float64{1, 2}) != 0 {
		t.Error("mismatched lengths should yield 0")
	}
	if SMTEfficiency([]float64{1}, []float64{0}) != 0 {
		t.Error("zero base IPC should yield 0")
	}
}

func TestSMTEfficiencyQuickBounds(t *testing.T) {
	// Property: with 0 < ipc <= base, efficiency lies in (0, 1].
	f := func(ipcs []float64) bool {
		if len(ipcs) == 0 {
			return true
		}
		var logical, base []float64
		for _, v := range ipcs {
			v = math.Abs(v)
			if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				v = 1
			}
			base = append(base, v+1)
			logical = append(logical, (v+1)/2)
		}
		e := SMTEfficiency(logical, base)
		return e > 0 && e <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeans(t *testing.T) {
	if a := ArithMean([]float64{1, 3}); a != 2 {
		t.Errorf("arithmean = %v", a)
	}
	if ArithMean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"name", "v"}}
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	s := tb.String()
	for _, want := range []string{"demo", "alpha", "beta", "2.500", "----"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	// Extra cells are dropped, never panic.
	tb.AddRow("x", "y", "z", "overflow")
	_ = tb.String()
}

func TestThreadStatsRates(t *testing.T) {
	ts := &ThreadStats{}
	if ts.BranchMispredictRate() != 0 || ts.LineMispredictRate() != 0 {
		t.Error("rates with no samples should be 0")
	}
	ts.Branches.Add(10)
	ts.BranchMispredicts.Add(2)
	ts.LineFetches.Add(100)
	ts.LineMispredicts.Add(25)
	if ts.BranchMispredictRate() != 0.2 {
		t.Errorf("branch rate = %v", ts.BranchMispredictRate())
	}
	if ts.LineMispredictRate() != 0.25 {
		t.Errorf("line rate = %v", ts.LineMispredictRate())
	}
}

func TestRunStats(t *testing.T) {
	rs := &RunStats{Cycles: 100}
	a, b := &ThreadStats{}, &ThreadStats{}
	a.Committed.Add(150)
	b.Committed.Add(50)
	rs.Threads = []*ThreadStats{a, b}
	if rs.IPCOf(0) != 1.5 || rs.IPCOf(1) != 0.5 {
		t.Errorf("IPCs = %v, %v", rs.IPCOf(0), rs.IPCOf(1))
	}
	if rs.TotalCommitted() != 200 {
		t.Errorf("total = %d", rs.TotalCommitted())
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]float64{"b": 1, "a": 2, "c": 3}
	ks := SortedKeys(m)
	if len(ks) != 3 || ks[0] != "a" || ks[2] != "c" {
		t.Errorf("keys = %v", ks)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b"}}
	tb.AddRow("x,1", "plain")
	tb.AddRow(`quo"te`, "2")
	got := tb.CSV()
	want := "a,b\n\"x,1\",plain\n\"quo\"\"te\",2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
