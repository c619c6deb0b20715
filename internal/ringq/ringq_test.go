package ringq

import "testing"

func TestFIFOOrder(t *testing.T) {
	r := New[int](5)
	for i := 1; i <= 5; i++ {
		r.Push(i)
	}
	if !r.Full() {
		t.Fatal("ring should be full")
	}
	for i := 1; i <= 5; i++ {
		if got := r.Pop(); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	if !r.Empty() {
		t.Fatal("ring should be empty")
	}
}

func TestWrapAround(t *testing.T) {
	r := New[int](3)
	r.Push(1)
	r.Push(2)
	r.Pop()
	r.Push(3)
	r.Push(4) // wraps: internal size is 4, capacity 3
	want := []int{2, 3, 4}
	for i, w := range want {
		if got := r.At(i); got != w {
			t.Fatalf("At(%d) = %d, want %d", i, got, w)
		}
	}
	if r.Front() != 2 {
		t.Fatalf("front = %d, want 2", r.Front())
	}
}

func TestCapacityRounding(t *testing.T) {
	r := New[int](5)
	if r.Cap() != 5 {
		t.Fatalf("cap = %d, want 5", r.Cap())
	}
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push beyond capacity did not panic")
		}
	}()
	r.Push(99) // must panic at the logical capacity, not the pow2 size
}

func TestRemove(t *testing.T) {
	r := New[int](8)
	// Cycle the head off zero so removal exercises wrapped indices.
	r.Push(-1)
	r.Push(-2)
	r.Pop()
	r.Pop()
	for i := 1; i <= 6; i++ {
		r.Push(i * 10)
	}
	if r.Remove(999) {
		t.Fatal("removed an element that is not present")
	}
	if !r.Remove(10) { // front: O(1) path
		t.Fatal("front remove failed")
	}
	if !r.Remove(40) { // middle: shift path
		t.Fatal("middle remove failed")
	}
	if !r.Remove(60) { // back
		t.Fatal("back remove failed")
	}
	want := []int{20, 30, 50}
	if r.Len() != len(want) {
		t.Fatalf("len = %d, want %d", r.Len(), len(want))
	}
	for i, w := range want {
		if got := r.At(i); got != w {
			t.Fatalf("after removes At(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestFullEmptyRefillWraparound cycles every capacity (power-of-two and
// not) through fill-to-exact-capacity → drain-to-empty → refill, enough
// times that the head crosses the backing array's wrap point at every
// alignment. Each phase checks occupancy, FIFO order, Front/At agreement,
// and that the capacity boundary panics exactly at cap — the off-by-one
// surface of a ring whose backing size exceeds its logical capacity.
func TestFullEmptyRefillWraparound(t *testing.T) {
	for capacity := 1; capacity <= 9; capacity++ {
		r := New[int](capacity)
		next := 0
		for cycle := 0; cycle < 2*capacity+3; cycle++ {
			// Fill to exact capacity.
			base := next
			for i := 0; i < capacity; i++ {
				if r.Full() {
					t.Fatalf("cap=%d cycle=%d: Full() at occupancy %d", capacity, cycle, r.Len())
				}
				r.Push(next)
				next++
			}
			if !r.Full() || r.Len() != capacity {
				t.Fatalf("cap=%d cycle=%d: after fill Len=%d Full=%v", capacity, cycle, r.Len(), r.Full())
			}
			mustPanic(t, func() { r.Push(-1) }, "push beyond exact capacity")
			// Indexed reads agree with insertion order while full.
			for i := 0; i < capacity; i++ {
				if got := r.At(i); got != base+i {
					t.Fatalf("cap=%d cycle=%d: At(%d) = %d, want %d", capacity, cycle, i, got, base+i)
				}
			}
			// Drain to empty in FIFO order.
			for i := 0; i < capacity; i++ {
				if r.Front() != base+i {
					t.Fatalf("cap=%d cycle=%d: Front = %d, want %d", capacity, cycle, r.Front(), base+i)
				}
				if got := r.Pop(); got != base+i {
					t.Fatalf("cap=%d cycle=%d: Pop = %d, want %d", capacity, cycle, got, base+i)
				}
			}
			if !r.Empty() || r.Len() != 0 {
				t.Fatalf("cap=%d cycle=%d: after drain Len=%d Empty=%v", capacity, cycle, r.Len(), r.Empty())
			}
			mustPanic(t, func() { r.Pop() }, "pop of empty ring")
			mustPanic(t, func() { r.Front() }, "front of empty ring")
			// Shift the head by one so the next cycle starts at a new
			// alignment; over 2*cap+3 cycles every wrap offset is hit.
			r.Push(next)
			next++
			r.Pop()
		}
	}
}

// TestRefillAfterPartialDrainAtCapacity holds the ring at capacity while
// sliding the window one slot per step — the steady state of the
// pipeline's rate-matching buffer — and checks element identity across
// more than two full traversals of the backing array.
func TestRefillAfterPartialDrainAtCapacity(t *testing.T) {
	for capacity := 1; capacity <= 9; capacity++ {
		r := New[int](capacity)
		for i := 0; i < capacity; i++ {
			r.Push(i)
		}
		oldest := 0
		for step := 0; step < 3*capacity+5; step++ {
			if got := r.Pop(); got != oldest {
				t.Fatalf("cap=%d step=%d: Pop = %d, want %d", capacity, step, got, oldest)
			}
			oldest++
			r.Push(capacity + step)
			if !r.Full() {
				t.Fatalf("cap=%d step=%d: window slide lost capacity (Len=%d)", capacity, step, r.Len())
			}
			for i := 0; i < capacity; i++ {
				if got := r.At(i); got != oldest+i {
					t.Fatalf("cap=%d step=%d: At(%d) = %d, want %d", capacity, step, i, got, oldest+i)
				}
			}
		}
	}
}

// TestRemoveOnFullWrappedRing removes from every index of a ring that is
// simultaneously full and wrapped, then refills to capacity — Remove's
// shift path must leave the vacated slot reusable at every alignment.
func TestRemoveOnFullWrappedRing(t *testing.T) {
	for capacity := 2; capacity <= 7; capacity++ {
		for shift := 0; shift <= 2*capacity; shift++ {
			for victim := 0; victim < capacity; victim++ {
				r := New[int](capacity)
				for k := 0; k < shift; k++ {
					r.Push(-1)
					r.Pop()
				}
				want := make([]int, 0, capacity)
				for k := 0; k < capacity; k++ {
					r.Push(k * 10)
					want = append(want, k*10)
				}
				if !r.Remove(victim * 10) {
					t.Fatalf("cap=%d shift=%d: Remove(%d) not found", capacity, shift, victim*10)
				}
				want = append(want[:victim], want[victim+1:]...)
				r.Push(999)
				want = append(want, 999)
				if r.Len() != len(want) || !r.Full() {
					t.Fatalf("cap=%d shift=%d victim=%d: Len=%d Full=%v after remove+refill",
						capacity, shift, victim, r.Len(), r.Full())
				}
				for i, w := range want {
					if got := r.At(i); got != w {
						t.Fatalf("cap=%d shift=%d victim=%d: At(%d) = %d, want %d",
							capacity, shift, victim, i, got, w)
					}
				}
			}
		}
	}
}

func mustPanic(t *testing.T, fn func(), what string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestPushPopSteadyStateDoesNotAllocate(t *testing.T) {
	r := New[*int](16)
	vals := make([]*int, 16)
	for i := range vals {
		vals[i] = new(int)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, v := range vals {
			r.Push(v)
		}
		for range vals {
			r.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f times per run", allocs)
	}
}
