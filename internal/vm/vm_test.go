package vm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func run(t *testing.T, build func(b *isa.Builder)) *Thread {
	t.Helper()
	b := isa.NewBuilder("test")
	build(b)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	Load(p, mem)
	th := NewThread(0, p, mem)
	if th.Run(100000) == 100000 {
		t.Fatal("program did not halt within 100k instructions")
	}
	return th
}

func TestALUBasics(t *testing.T) {
	th := run(t, func(b *isa.Builder) {
		b.Ldi(isa.R1, 7)
		b.Ldi(isa.R2, 3)
		b.Add(isa.R3, isa.R1, isa.R2)    // 10
		b.Sub(isa.R4, isa.R1, isa.R2)    // 4
		b.Mul(isa.R5, isa.R1, isa.R2)    // 21
		b.Div(isa.R6, isa.R1, isa.R2)    // 2
		b.Mod(isa.R7, isa.R1, isa.R2)    // 1
		b.Xor(isa.R8, isa.R1, isa.R2)    // 4
		b.Sll(isa.R9, isa.R1, isa.R2)    // 56
		b.Cmplt(isa.R10, isa.R2, isa.R1) // 1
		b.Halt()
	})
	want := map[isa.Reg]uint64{
		isa.R3: 10, isa.R4: 4, isa.R5: 21, isa.R6: 2, isa.R7: 1,
		isa.R8: 4, isa.R9: 56, isa.R10: 1,
	}
	for r, v := range want {
		if th.IntReg[r] != v {
			t.Errorf("r%d = %d, want %d", r, th.IntReg[r], v)
		}
	}
}

func TestDivModByZero(t *testing.T) {
	th := run(t, func(b *isa.Builder) {
		b.Ldi(isa.R1, 42)
		b.Div(isa.R2, isa.R1, isa.R31)
		b.Mod(isa.R3, isa.R1, isa.R31)
		b.Halt()
	})
	if th.IntReg[isa.R2] != 0 || th.IntReg[isa.R3] != 0 {
		t.Errorf("div/mod by zero: got %d, %d; want 0, 0", th.IntReg[isa.R2], th.IntReg[isa.R3])
	}
}

func TestZeroRegisterHardwired(t *testing.T) {
	th := run(t, func(b *isa.Builder) {
		b.Ldi(isa.R31, 99)
		b.Add(isa.R1, isa.R31, isa.R31)
		b.Halt()
	})
	if th.IntReg[isa.R1] != 0 {
		t.Errorf("R31 not hardwired to zero: r1 = %d", th.IntReg[isa.R1])
	}
}

func TestNegativeImmediates(t *testing.T) {
	th := run(t, func(b *isa.Builder) {
		b.Ldi(isa.R1, -5)
		b.Addi(isa.R2, isa.R1, -10) // -15
		b.Srai(isa.R3, isa.R1, 1)   // -3 (arithmetic)
		b.Srli(isa.R4, isa.R1, 60)  // high bits of -5
		b.Halt()
	})
	if int64(th.IntReg[isa.R2]) != -15 {
		t.Errorf("addi: got %d, want -15", int64(th.IntReg[isa.R2]))
	}
	if int64(th.IntReg[isa.R3]) != -3 {
		t.Errorf("srai: got %d, want -3", int64(th.IntReg[isa.R3]))
	}
	if th.IntReg[isa.R4] != 0xf {
		t.Errorf("srli: got %#x, want 0xf", th.IntReg[isa.R4])
	}
}

func TestLoadStore(t *testing.T) {
	th := run(t, func(b *isa.Builder) {
		b.InitData64(0x2000, 0xdeadbeefcafef00d)
		b.Ldi(isa.R1, 0x2000)
		b.Ldq(isa.R2, isa.R1, 0) // load init data
		b.Stq(isa.R2, isa.R1, 8) // copy
		b.Ldq(isa.R3, isa.R1, 8) // reload through overlay
		b.Ldb(isa.R4, isa.R1, 0) // 0x0d
		b.Ldi(isa.R5, 0x77)
		b.Stb(isa.R5, isa.R1, 16)
		b.Ldb(isa.R6, isa.R1, 16)
		b.Halt()
	})
	if th.IntReg[isa.R2] != 0xdeadbeefcafef00d {
		t.Errorf("ldq init: got %#x", th.IntReg[isa.R2])
	}
	if th.IntReg[isa.R3] != 0xdeadbeefcafef00d {
		t.Errorf("store-forward: got %#x", th.IntReg[isa.R3])
	}
	if th.IntReg[isa.R4] != 0x0d {
		t.Errorf("ldb: got %#x, want 0x0d", th.IntReg[isa.R4])
	}
	if th.IntReg[isa.R6] != 0x77 {
		t.Errorf("stb/ldb: got %#x, want 0x77", th.IntReg[isa.R6])
	}
}

func TestPartialStoreForward(t *testing.T) {
	// Byte store followed by quad load of the same location must merge the
	// byte into the quad (this pattern drives the paper's partial-forward
	// chunk-termination rule).
	th := run(t, func(b *isa.Builder) {
		b.InitData64(0x3000, 0x1111111111111111)
		b.Ldi(isa.R1, 0x3000)
		b.Ldi(isa.R2, 0xaa)
		b.Stb(isa.R2, isa.R1, 2)
		b.Ldq(isa.R3, isa.R1, 0)
		b.Halt()
	})
	if th.IntReg[isa.R3] != 0x11111111_11aa1111 {
		t.Errorf("partial forward: got %#x", th.IntReg[isa.R3])
	}
}

func TestControlFlowLoop(t *testing.T) {
	th := run(t, func(b *isa.Builder) {
		b.Ldi(isa.R1, 10)
		b.Ldi(isa.R2, 0)
		b.Label("top")
		b.Add(isa.R2, isa.R2, isa.R1)
		b.Addi(isa.R1, isa.R1, -1)
		b.Bne(isa.R1, "top")
		b.Halt()
	})
	if th.IntReg[isa.R2] != 55 {
		t.Errorf("sum 10..1 = %d, want 55", th.IntReg[isa.R2])
	}
}

func TestJsrRet(t *testing.T) {
	th := run(t, func(b *isa.Builder) {
		b.Ldi(isa.R1, 5)
		b.Jsr(isa.R26, "double")
		b.Jsr(isa.R26, "double")
		b.Halt()
		b.Label("double")
		b.Add(isa.R1, isa.R1, isa.R1)
		b.Ret(isa.R26)
	})
	if th.IntReg[isa.R1] != 20 {
		t.Errorf("double twice: got %d, want 20", th.IntReg[isa.R1])
	}
}

func TestConditionalBranchVariants(t *testing.T) {
	th := run(t, func(b *isa.Builder) {
		b.Ldi(isa.R1, -1)
		b.Ldi(isa.R10, 0)
		b.Blt(isa.R1, "neg")
		b.Halt() // skipped
		b.Label("neg")
		b.Ldi(isa.R10, 1)
		b.Bge(isa.R1, "bad")
		b.Bgt(isa.R31, "bad")
		b.Ble(isa.R31, "ok")
		b.Label("bad")
		b.Ldi(isa.R10, 99)
		b.Halt()
		b.Label("ok")
		b.Halt()
	})
	if th.IntReg[isa.R10] != 1 {
		t.Errorf("branch variants: r10 = %d, want 1", th.IntReg[isa.R10])
	}
}

func TestFloatingPoint(t *testing.T) {
	th := run(t, func(b *isa.Builder) {
		b.Ldi(isa.R1, 9)
		b.Cvtqf(isa.F1, isa.R1) // 9.0
		b.Fsqrt(isa.F2, isa.F1) // 3.0
		b.Fadd(isa.F3, isa.F2, isa.F2)
		b.Fmul(isa.F4, isa.F3, isa.F2) // 18
		b.Fdiv(isa.F5, isa.F4, isa.F2) // 6
		b.Fsub(isa.F6, isa.F5, isa.F2) // 3
		b.Fneg(isa.F7, isa.F6)         // -3
		b.Cvtfq(isa.R2, isa.F7)        // -3
		b.Fcmplt(isa.F8, isa.F7, isa.F6)
		b.Ftoi(isa.R3, isa.F8) // 1
		b.Halt()
	})
	if int64(th.IntReg[isa.R2]) != -3 {
		t.Errorf("fp chain: got %d, want -3", int64(th.IntReg[isa.R2]))
	}
	if th.IntReg[isa.R3] != 1 {
		t.Errorf("fcmplt: got %d, want 1", th.IntReg[isa.R3])
	}
	if got := math.Float64frombits(th.FPReg[isa.F4]); got != 18 {
		t.Errorf("fmul: got %v, want 18", got)
	}
}

func TestCvtfqNaN(t *testing.T) {
	th := run(t, func(b *isa.Builder) {
		b.Fdiv(isa.F1, isa.F31, isa.F31) // 0/0 = NaN
		b.Cvtfq(isa.R1, isa.F1)
		b.Halt()
	})
	if th.IntReg[isa.R1] != 0 {
		t.Errorf("cvtfq(NaN) = %d, want 0", th.IntReg[isa.R1])
	}
}

func TestHaltStopsThread(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Halt()
	p := b.MustFinish()
	mem := NewMemory()
	th := NewThread(0, p, mem)
	th.Step()
	if !th.Halted {
		t.Fatal("thread not halted")
	}
	out := th.Step()
	if !out.Halted || out.Instr.Op != isa.HALT {
		t.Error("stepping a halted thread should return halted no-op outcomes")
	}
}

func TestOutcomeFieldsForStore(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Ldi(isa.R1, 0x100)
	b.Ldi(isa.R2, 0x42)
	b.Stq(isa.R2, isa.R1, 8)
	b.Halt()
	p := b.MustFinish()
	mem := NewMemory()
	th := NewThread(0, p, mem)
	th.Step()
	th.Step()
	out := th.Step()
	if !out.IsStore() || out.Addr != 0x108 || out.Value != 0x42 || out.Size != 8 {
		t.Errorf("store outcome = %+v", out)
	}
}

func TestMemoryQuickRead64Write64(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, val uint64) bool {
		addr &= (1 << 40) - 1 // keep page map small-ish
		m.Write64(addr, val)
		return m.Read64(addr) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMemoryUnalignedCrossPage(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3) // crosses a page boundary
	m.Write64(addr, 0x0807060504030201)
	if got := m.Read64(addr); got != 0x0807060504030201 {
		t.Errorf("cross-page read = %#x", got)
	}
	if m.Byte(pageSize) != 4 {
		t.Errorf("byte on second page = %d, want 4", m.Byte(pageSize))
	}
}

func TestOverlayVisibilityAndRelease(t *testing.T) {
	mem := NewMemory()
	mem.Write64(0x100, 0x1111)
	a := NewOverlay(mem)
	b := NewOverlay(mem)

	// a stores privately; b must not see it.
	a.Store(0x100, 0x2222, 8, 1)
	if got := a.Read64(0x100); got != 0x2222 {
		t.Errorf("a sees %#x, want its own store", got)
	}
	if got := b.Read64(0x100); got != 0x1111 {
		t.Errorf("b sees %#x, want committed value", got)
	}

	// Release with commit: b now sees it; overlay drained.
	a.Release(0x100, 0x2222, 8, 1, true)
	if got := b.Read64(0x100); got != 0x2222 {
		t.Errorf("after commit b sees %#x", got)
	}
	if a.PendingBytes() != 0 {
		t.Errorf("overlay not drained: %d bytes", a.PendingBytes())
	}
}

func TestOverlayReleaseKeepsNewerStore(t *testing.T) {
	mem := NewMemory()
	o := NewOverlay(mem)
	o.Store(0x100, 0xaa, 1, 1)
	o.Store(0x100, 0xbb, 1, 2) // newer store, same byte
	// Releasing the older store must not evict the newer overlay byte.
	o.Release(0x100, 0xaa, 1, 1, true)
	if got := o.Byte(0x100); got != 0xbb {
		t.Errorf("overlay byte = %#x, want 0xbb (newer store)", got)
	}
	o.Release(0x100, 0xbb, 1, 2, true)
	if got := mem.Byte(0x100); got != 0xbb {
		t.Errorf("memory byte = %#x, want 0xbb", got)
	}
	if o.PendingBytes() != 0 {
		t.Error("overlay should be empty")
	}
}

// TestOverlayReleaseDropsEmptyWords: a word whose last pending byte is
// released leaves the overlay, so a long run's overlay holds only the
// words still pending, not every word stored since the last restore. A
// recycled record must not stay reachable through the word cache under
// its old address.
func TestOverlayReleaseDropsEmptyWords(t *testing.T) {
	mem := NewMemory()
	o := NewOverlay(mem)
	for i := uint64(0); i < 1000; i++ {
		a := 0x1000 + 8*i
		if i%2 == 0 {
			o.Store(a, i, 8, i+1)
			o.Release(a, i, 8, i+1, true)
		} else {
			o.Store(a+3, i, 1, i+1)
			o.Release(a+3, i, 1, i+1, false)
		}
	}
	if len(o.words) != 0 || o.PendingBytes() != 0 || o.filter != 0 {
		t.Fatalf("after releasing every store the overlay holds %d words, %d bytes, filter %#x; want none",
			len(o.words), o.PendingBytes(), o.filter)
	}

	// Keep one word pending so the filter stays set, release a second
	// word, and store a third into the record the second one left.
	mem.Write64(0x208, 0x5555)
	o.Store(0x300, 1, 8, 2000)
	o.Store(0x208, 2, 8, 2001)
	o.Release(0x208, 2, 8, 2001, false)
	o.Store(0x410, 3, 8, 2002)
	if got := o.Read64(0x208); got != 0x5555 {
		t.Errorf("released word reads %#x through the overlay, want the committed %#x", got, 0x5555)
	}
	if got := o.Read64(0x410); got != 3 {
		t.Errorf("new store reads %#x, want 3", got)
	}
	if len(o.words) != 2 {
		t.Errorf("overlay holds %d words, want the 2 pending", len(o.words))
	}
}

func TestRedundantThreadsProduceIdenticalStores(t *testing.T) {
	// Two copies of the same program over the same committed memory, each
	// with its own overlay, must produce bit-identical store streams — the
	// fault-free invariant underlying RMT output comparison.
	b := isa.NewBuilder("t")
	b.Ldi(isa.R1, 0x1000)
	b.Ldi(isa.R2, 0)
	b.Ldi(isa.R3, 50)
	b.Label("top")
	b.Mul(isa.R4, isa.R2, isa.R2)
	b.Stq(isa.R4, isa.R1, 0)
	b.Ldq(isa.R5, isa.R1, 0)
	b.Add(isa.R2, isa.R2, isa.R5)
	b.Andi(isa.R2, isa.R2, 0xffff)
	b.Addi(isa.R1, isa.R1, 8)
	b.Addi(isa.R3, isa.R3, -1)
	b.Bne(isa.R3, "top")
	b.Halt()
	p := b.MustFinish()

	mem := NewMemory()
	Load(p, mem)
	lead := NewThread(0, p, mem)
	trail := NewThread(1, p, mem)

	type st struct {
		addr, val uint64
	}
	var leadStores, trailStores []st
	for !lead.Halted {
		out := lead.Step()
		if out.IsStore() {
			leadStores = append(leadStores, st{out.Addr, out.Value})
		}
	}
	for !trail.Halted {
		out := trail.Step()
		if out.IsStore() {
			trailStores = append(trailStores, st{out.Addr, out.Value})
		}
	}
	if len(leadStores) != len(trailStores) || len(leadStores) == 0 {
		t.Fatalf("store counts differ: %d vs %d", len(leadStores), len(trailStores))
	}
	for i := range leadStores {
		if leadStores[i] != trailStores[i] {
			t.Fatalf("store %d differs: %+v vs %+v", i, leadStores[i], trailStores[i])
		}
	}
}

func TestCorruptHookDivergesStores(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Ldi(isa.R1, 0x1000)
	b.Ldi(isa.R2, 5)
	b.Muli(isa.R3, isa.R2, 3)
	b.Stq(isa.R3, isa.R1, 0)
	b.Halt()
	p := b.MustFinish()

	mem := NewMemory()
	clean := NewThread(0, p, mem)
	faulty := NewThread(1, p, mem)
	faulty.Corrupt = func(point CorruptPoint, seq, pc, v uint64) uint64 {
		if point == PointResult && seq == 2 { // the MULI
			return v ^ (1 << 7)
		}
		return v
	}
	var cleanVal, faultyVal uint64
	for !clean.Halted {
		if out := clean.Step(); out.IsStore() {
			cleanVal = out.Value
		}
	}
	for !faulty.Halted {
		if out := faulty.Step(); out.IsStore() {
			faultyVal = out.Value
		}
	}
	if cleanVal == faultyVal {
		t.Fatal("fault did not propagate to store value")
	}
	if faultyVal != cleanVal^(1<<7) {
		t.Errorf("faulty = %#x, clean = %#x", faultyVal, cleanVal)
	}
}
