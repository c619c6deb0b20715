package progen

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/vm"
)

// CharacterizeOracle replays the kernel on a scalar thread — the
// differential oracle the batched Characterize is tested against.
func CharacterizeOracle(k *Kernel) (*Profile, error) {
	memImg := vm.NewMemory()
	vm.Load(k.Prog, memImg)
	th := vm.NewThread(0, k.Prog, memImg)
	p := newProfiler()

	var out vm.Outcome
	for !th.Halted {
		if th.Seq >= characterizeCap {
			return nil, fmt.Errorf("progen: %s did not halt within %d instructions (declared bound %d)",
				k.Prog.Name, uint64(characterizeCap), k.MaxDynInstr)
		}
		th.StepInto(&out)
		p.step(&out)
	}
	if th.Seq > k.MaxDynInstr {
		return nil, fmt.Errorf("progen: %s halted at %d dynamic instructions, beyond its declared bound %d",
			k.Prog.Name, th.Seq, k.MaxDynInstr)
	}
	return p.finish(k, th.Seq), nil
}

// TestCharacterizeMatchesOracle: the batched characterisation must produce
// byte-identical profiles to the scalar-thread oracle over the fixed
// 64-kernel corpus (the measurement is a pure function of the outcome
// stream, which the vm battery holds bit-equal across engines).
func TestCharacterizeMatchesOracle(t *testing.T) {
	for _, seed := range CorpusSeeds(corpusSeed, 64) {
		k := Generate(seed)
		batched, err := Characterize(k)
		if err != nil {
			t.Fatalf("%s: batched: %v", k.Prog.Name, err)
		}
		scalar, err := CharacterizeOracle(k)
		if err != nil {
			t.Fatalf("%s: oracle: %v", k.Prog.Name, err)
		}
		bj, err := json.Marshal(batched)
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(scalar)
		if err != nil {
			t.Fatal(err)
		}
		if string(bj) != string(sj) {
			t.Fatalf("%s: profiles diverged\nbatched: %s\noracle:  %s", k.Prog.Name, bj, sj)
		}
	}
}
