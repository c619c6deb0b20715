package isa

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestDisassemblyGolden pins Instr.String and Op.String for one instruction
// per opcode plus an undefined opcode. The disassembly names every trace
// event and is hashed into the corpus digest through the ACE analysis's
// masked sites, so it must not drift. Each field holds a distinct value so
// a swapped or dropped operand shows, and the immediate is positive so the
// signed branch form (%+d) differs from the plain one. Regenerate with
// `go test ./internal/isa -run TestDisassemblyGolden -update` only for a
// deliberate change of syntax.
func TestDisassemblyGolden(t *testing.T) {
	ops := make([]Op, 0, NumOps+1)
	for op := Op(0); op < numOps; op++ {
		ops = append(ops, op)
	}
	ops = append(ops, 250)
	var b strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&b, "%-8s %s\n", op, Instr{Op: op, Rd: 1, Ra: 2, Rb: 3, Imm: 4})
	}
	got := b.String()
	path := filepath.Join("testdata", "disasm.golden")
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
		t.Fatalf("missing golden file (run `go test ./internal/isa -run TestDisassemblyGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("disassembly drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
