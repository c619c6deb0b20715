package fault

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestChromeTraceGolden pins the bytes EventLog.WriteChromeJSON exports
// for short real runs: an SRT run with one armed store-data fault, which
// the comparator detects, and a fault-free CRT run. Between them the logs
// hold all four event kinds. Each line records a run's export hash and
// length and how many events of each kind it holds. Regenerate with
// `go test ./internal/fault -run TestChromeTraceGolden -update` only for a
// deliberate change of the export or of the model.
func TestChromeTraceGolden(t *testing.T) {
	runs := []struct {
		name  string
		spec  sim.Spec
		fault *Transient
	}{
		{"srt compress, store-data fault", chromeSpec(sim.ModeSRT, "compress"),
			&Transient{Target: LeadingCopy, AtSeq: 700, Point: vm.PointStoreData, Bit: 5}},
		{"crt gcc", chromeSpec(sim.ModeCRT, "gcc"), nil},
	}
	var b strings.Builder
	kinds := map[trace.EventKind]int{}
	for _, r := range runs {
		spec := r.spec
		spec.StopOnDetection = r.fault != nil
		m, err := sim.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		l := m.EnableTrace(0)
		if r.fault != nil {
			if _, err := r.fault.Arm(m); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var buf bytes.Buffer
		if err := l.WriteChromeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		count := map[trace.EventKind]int{}
		for _, ev := range l.Events() {
			count[ev.Kind]++
			kinds[ev.Kind]++
		}
		fmt.Fprintf(&b, "%s: %x %d", r.name, sha256.Sum256(buf.Bytes()), buf.Len())
		for _, k := range []trace.EventKind{trace.KindInstr, trace.KindSquash, trace.KindCompare, trace.KindFaultInject} {
			fmt.Fprintf(&b, " %s=%d", k, count[k])
		}
		b.WriteByte('\n')
	}
	for _, k := range []trace.EventKind{trace.KindInstr, trace.KindSquash, trace.KindCompare, trace.KindFaultInject} {
		if kinds[k] == 0 {
			t.Errorf("no %s event in any run", k)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/fault -run TestChromeTraceGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("Chrome trace export drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// chromeSpec sizes the traced runs: long enough for mispredicted branches
// and compared stores, short enough to keep the test fast.
func chromeSpec(mode sim.Mode, progs ...string) sim.Spec {
	return sim.Spec{
		Mode:     mode,
		Programs: progs,
		Budget:   1500,
		Warmup:   500,
		Config:   pipeline.DefaultConfig(),
		PSR:      true,
	}
}
