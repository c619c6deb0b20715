package isa

import (
	"bytes"
	"strings"
	"testing"
)

// TestReadImageRejectsInvalidProgram: an image is validated on load, so an
// entry, interrupt handler or direct branch target outside the code is an
// error, not a program that panics the VM when run.
func TestReadImageRejectsInvalidProgram(t *testing.T) {
	add := Instr{Op: ADD, Rd: R1, Ra: R2, Rb: R3}
	cases := []struct {
		prog Program
		want string
	}{
		{Program{Code: []Instr{add}, Entry: 5}, "entry 5 outside code"},
		{Program{Code: []Instr{add}, InterruptHandler: 7}, "interrupt handler 7 outside code"},
		{Program{Code: []Instr{{Op: BEQ, Ra: R1, Imm: 9}, {Op: HALT}}}, "branch target 10 outside code"},
		{Program{Code: []Instr{{Op: JSR, Rd: R26, Imm: -3}, {Op: HALT}}}, "branch target 18446744073709551614 outside code"},
		{Program{}, "entry 0 outside code (len 0)"},
	}
	for _, c := range cases {
		var img bytes.Buffer
		if err := WriteImage(&img, &c.prog); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadImage(&img, "bad"); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadImage(%v): got error %v, want one containing %q", c.prog.Code, err, c.want)
		}
	}

	// The same instruction with everything in range loads.
	var img bytes.Buffer
	ok := &Program{Code: []Instr{add, {Op: BEQ, Ra: R1, Imm: -2}, {Op: HALT}}, InterruptHandler: 2}
	if err := WriteImage(&img, ok); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadImage(&img, "ok"); err != nil {
		t.Errorf("ReadImage of a valid program: %v", err)
	}
}
