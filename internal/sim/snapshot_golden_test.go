package sim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestSnapshotEncodingGolden pins the snapshot bytes across commits. The
// byte-identity tests compare a machine with its own restore, so both sides
// run the same code; this one compares with a recorded hash, so a change to
// the encoding or to any simulated state shows up here. Every mode runs
// three workloads and is snapshotted at two cycles. Regenerate with
// `go test ./internal/sim -run TestSnapshotEncodingGolden -update` only for
// a deliberate change of format or model.
func TestSnapshotEncodingGolden(t *testing.T) {
	workloads := [][]string{{"gcc"}, {"compress", "swim"}, {"gen:7"}}
	var b strings.Builder
	for _, mode := range Modes() {
		for _, progs := range workloads {
			spec := snapSpec(mode, progs...)
			for _, cycle := range []uint64{700, 2500} {
				s, _ := runToCycle(t, spec, cycle)
				fmt.Fprintf(&b, "%s %s %d %x %d\n",
					mode, strings.Join(progs, ","), cycle, sha256.Sum256(s), len(s))
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "snapshot_hashes.golden")
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
		t.Fatalf("missing golden file (run `go test ./internal/sim -run TestSnapshotEncodingGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("snapshot bytes drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
