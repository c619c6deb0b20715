package main

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// TestProfileFallOffReportsTrap: an image may end without HALT, so
// `rmtasm -bin fall.img -profile` on one `add` runs off the code image.
// The profile stops at the trap and reports it instead of panicking.
func TestProfileFallOffReportsTrap(t *testing.T) {
	var img bytes.Buffer
	fall := &isa.Program{Name: "fall", Code: []isa.Instr{{Op: isa.ADD, Rd: isa.R1, Ra: isa.R2, Rb: isa.R3}}}
	if err := isa.WriteImage(&img, fall); err != nil {
		t.Fatal(err)
	}
	p, err := isa.ReadImage(&img, "fall")
	if err != nil {
		t.Fatalf("a program that falls off its code is well-formed, but the load failed: %v", err)
	}
	d := runProfile(program.Info{Name: "fall", Build: func() *isa.Program { return p }}, 0, 100)
	if d.n != 1 || d.counts["add"] != 1 {
		t.Errorf("profiled %d instructions (%v), want the one add", d.n, d.counts)
	}
	if want := `pc 1 outside "fall" code (len 1)`; d.trap != want {
		t.Errorf("trap = %q, want %q", d.trap, want)
	}
}
