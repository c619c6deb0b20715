package progen

import (
	"testing"

	"repro/internal/isa"
)

// TestCharacterizeJSRStartsChain: a JSR reads no register (it only writes
// its link), so it cannot extend a dependence chain. Fifty chained
// `addi r0` followed by `jsr r5` and `halt` have a critical path of 50.
func TestCharacterizeJSRStartsChain(t *testing.T) {
	b := isa.NewBuilder("jsr-chain")
	for range 50 {
		b.Addi(isa.R0, isa.R0, 1)
	}
	b.Jsr(isa.R5, "end")
	b.Label("end")
	b.Halt()
	p, err := Characterize(&Kernel{Prog: b.MustFinish(), MaxDynInstr: 52})
	if err != nil {
		t.Fatal(err)
	}
	if p.DynInstrs != 52 {
		t.Fatalf("DynInstrs = %d, want 52", p.DynInstrs)
	}
	if want := 52.0 / 50; p.ILP != want {
		t.Errorf("ILP = %v (critical path %.0f), want %v (critical path 50)", p.ILP, 52/p.ILP, want)
	}
}
