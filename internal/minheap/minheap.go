// Package minheap is the simulator's one timestamp-ordered priority
// queue: a 4-ary min-heap over (time, sequence) keys. The softstack
// node's kernel event queue and the switch model's pending-packet queue
// both use it.
//
// The two keys are plain integer fields of each entry, so ordering never
// calls a Less method through an interface or a generic dictionary, and
// pushes and pops never box. A 4-ary tree halves the depth of a binary
// one. Callers keep every queued (At, Seq) pair distinct, which makes the
// order total: entries drain in exactly (At, Seq) order whatever the
// heap's arity or shape. The switch passes the ingress port as Seq (a port
// completes at most one packet per cycle); the softstack node passes a
// running event counter.
package minheap

import "repro/internal/clock"

// Entry is one queued value with its ordering keys.
type Entry[T any] struct {
	At  clock.Cycles
	Seq uint64
	Val T
}

func (e *Entry[T]) before(o *Entry[T]) bool {
	return e.At < o.At || e.At == o.At && e.Seq < o.Seq
}

// Heap is a 4-ary min-heap of entries. The zero value is empty and ready
// to use; its backing array is reused across pops and pushes, so a heap
// that has reached its working size no longer allocates.
type Heap[T any] struct {
	a []Entry[T]
}

// Len reports the number of queued entries.
func (h *Heap[T]) Len() int { return len(h.a) }

// Min returns the earliest entry without removing it; the heap must not
// be empty. The pointer is valid until the next Push or Pop.
func (h *Heap[T]) Min() *Entry[T] { return &h.a[0] }

// Push queues v at (at, seq).
func (h *Heap[T]) Push(at clock.Cycles, seq uint64, v T) {
	h.a = append(h.a, Entry[T]{At: at, Seq: seq, Val: v})
	a := h.a
	i := len(a) - 1
	e := a[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = e
}

// Pop removes and returns the earliest entry; the heap must not be empty.
func (h *Heap[T]) Pop() Entry[T] {
	a := h.a
	top := a[0]
	n := len(a) - 1
	e := a[n]
	a[n] = Entry[T]{} // drop references held by the vacated cell
	a = a[:n]
	h.a = a
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if a[c].before(&a[m]) {
				m = c
			}
		}
		if !a[m].before(&e) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
	return top
}
