// Package ringq provides the fixed-capacity ring buffer backing the
// pipeline's bounded queues (ROB, rate-matching buffer, store lists). Every
// hardware structure the timing model simulates has a capacity fixed by
// Table 1 of the paper, so the backing storage is allocated once at machine
// construction and never grows: pushes and pops in the per-cycle hot loop
// are pointer arithmetic on a preallocated array, with none of the
// append-grow / slice-shift garbage the naive []T representation churns
// through.
//
// The zero Ring is not usable; construct with New. Push on a full ring and
// Pop on an empty ring panic: the pipeline checks occupancy against the
// modelled capacity before every insertion, so an overflow is a simulator
// bug, not a recoverable condition.
package ringq

import "fmt"

// Ring is a fixed-capacity FIFO with indexed access. The element order is
// insertion order (front = oldest), matching the program order the pipeline
// queues maintain.
type Ring[T comparable] struct {
	buf  []T
	mask int // len(buf)-1; len(buf) is a power of two >= capacity
	cap  int // logical capacity (panic threshold)
	head int
	n    int
}

// New returns a ring with the given logical capacity.
func New[T comparable](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ringq: capacity %d must be positive", capacity))
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Ring[T]{buf: make([]T, size), mask: size - 1, cap: capacity}
}

// Len returns the current occupancy.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the logical capacity.
func (r *Ring[T]) Cap() int { return r.cap }

// Full reports whether the ring is at capacity.
func (r *Ring[T]) Full() bool { return r.n >= r.cap }

// Empty reports whether the ring holds no elements.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// Push appends v at the back. It panics when full.
func (r *Ring[T]) Push(v T) {
	if r.n >= r.cap {
		panic("ringq: push beyond capacity")
	}
	r.buf[(r.head+r.n)&r.mask] = v
	r.n++
}

// Pop removes and returns the front element. It panics when empty.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("ringq: pop of empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // drop the reference for the collector
	r.head = (r.head + 1) & r.mask
	r.n--
	return v
}

// Front returns the front (oldest) element. It panics when empty.
func (r *Ring[T]) Front() T {
	if r.n == 0 {
		panic("ringq: front of empty ring")
	}
	return r.buf[r.head]
}

// At returns the i-th element from the front (0 = oldest). The panic
// message is a constant so the bounds check stays cheap enough for the
// compiler to inline At into the pipeline's per-cycle queue scans.
func (r *Ring[T]) At(i int) T {
	if uint(i) >= uint(r.n) {
		panic("ringq: index out of range")
	}
	return r.buf[(r.head+i)&r.mask]
}

// Remove deletes the first element equal to v, preserving the order of the
// remaining elements, and reports whether it was found. Removal at the front
// is O(1); elsewhere the elements behind it are shifted forward (the
// pipeline's store lists release almost exclusively at the front, so the
// shift path is cold).
func (r *Ring[T]) Remove(v T) bool {
	for i := 0; i < r.n; i++ {
		if r.buf[(r.head+i)&r.mask] != v {
			continue
		}
		if i == 0 {
			r.Pop()
			return true
		}
		for j := i; j < r.n-1; j++ {
			r.buf[(r.head+j)&r.mask] = r.buf[(r.head+j+1)&r.mask]
		}
		var zero T
		r.buf[(r.head+r.n-1)&r.mask] = zero
		r.n--
		return true
	}
	return false
}
