package fame

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/token"
)

func TestSPSCRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ min, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {9, 16}, {17, 32},
	} {
		if got := newSPSCRing(tc.min).cap(); got != tc.want {
			t.Errorf("newSPSCRing(%d).cap() = %d, want %d", tc.min, got, tc.want)
		}
	}
}

func TestSPSCRingFullEmptyAndWraparound(t *testing.T) {
	q := newSPSCRing(4)
	if _, ok := q.pop(); ok {
		t.Fatal("pop on empty ring succeeded")
	}

	// Drive well past capacity so the cursors wrap the buffer many times,
	// keeping the ring one short of full to exercise the cached-cursor
	// reload on both sides.
	batches := make([]*token.Batch, 64)
	for i := range batches {
		batches[i] = token.NewBatch(1)
	}
	next := 0
	for i := 0; i < 3; i++ {
		if !q.push(batches[next]) {
			t.Fatalf("push %d failed on non-full ring", next)
		}
		next++
	}
	read := 0
	for next < len(batches) {
		if !q.push(batches[next]) {
			t.Fatalf("push %d failed with %d in flight", next, q.len())
		}
		next++
		got, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d failed with %d in flight", read, q.len())
		}
		if got != batches[read] {
			t.Fatalf("pop %d returned wrong batch (FIFO order broken)", read)
		}
		read++
	}
	for read < len(batches) {
		got, ok := q.pop()
		if !ok {
			t.Fatalf("drain pop %d failed", read)
		}
		if got != batches[read] {
			t.Fatalf("drain pop %d returned wrong batch", read)
		}
		read++
	}
	if _, ok := q.pop(); ok {
		t.Fatal("ring not empty after draining everything")
	}

	// Full ring must reject the overflow push and accept it after one pop.
	for i := 0; i < q.cap(); i++ {
		if !q.push(batches[i]) {
			t.Fatalf("refill push %d failed", i)
		}
	}
	if q.push(batches[q.cap()]) {
		t.Fatal("push on full ring succeeded")
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("pop on full ring failed")
	}
	if !q.push(batches[q.cap()]) {
		t.Fatal("push after pop failed")
	}
}

// TestSPSCRingConcurrent streams batches through a small ring from a
// producer goroutine to a consumer goroutine; under -race this also
// checks the publication ordering of the slot writes against the cursor
// stores.
func TestSPSCRingConcurrent(t *testing.T) {
	const total = 10000
	q := newSPSCRing(8)
	batches := make([]*token.Batch, total)
	for i := range batches {
		b := token.NewBatch(1)
		b.Put(0, token.Token{Data: uint64(i), Valid: true})
		batches[i] = b
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			got, ok := q.pop()
			for !ok {
				runtime.Gosched()
				got, ok = q.pop()
			}
			if got != batches[i] || got.Slots[0].Tok.Data != uint64(i) {
				done <- fmt.Errorf("FIFO order broken at element %d", i)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < total; i++ {
		for !q.push(batches[i]) {
			runtime.Gosched()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if q.len() != 0 {
		t.Fatalf("ring holds %d batches after balanced push/pop", q.len())
	}
}

// TestSPSCRingInvalidCapPanics pins the satellite fix: a non-positive
// capacity request used to fall through the power-of-two rounding loop
// and silently return a capacity-1 ring, violating the link sizing
// invariant without a signal. It must now fail loudly at construction.
func TestSPSCRingInvalidCapPanics(t *testing.T) {
	for _, bad := range []int{0, -1, -64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newSPSCRing(%d) did not panic", bad)
				}
			}()
			newSPSCRing(bad)
		}()
	}
}

// TestRingPairSizing documents the cross-worker link sizing invariant:
// the data ring holds depth+1 slots (depth seeded batches plus one
// transient push-before-pop slot) and the free ring depth+3 (the whole
// circulating population, strictly). Draining and rebuilding must keep
// the population fixed — repeated RunParallel calls may not grow the
// recycle pool.
func TestRingPairSizing(t *testing.T) {
	r, _, _ := pulsePair()
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	ch := r.outCh[0][0]
	if ch == nil {
		t.Fatal("pulsePair endpoint 0 port 0 has no output channel")
	}
	depth := int(ch.latency / r.step)
	if got := ch.queue.len(); got != depth {
		t.Fatalf("channel seeded with %d batches, want depth %d", got, depth)
	}

	rp, err := r.newRingPair(ch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, min := rp.data.cap(), depth+1; got < min {
		t.Errorf("data cap %d < depth+1 = %d", got, min)
	}
	if got, min := rp.free.cap(), depth+3; got < min {
		t.Errorf("free cap %d < depth+3 = %d", got, min)
	}
	if got := rp.data.len(); got != depth {
		t.Errorf("data ring seeded with %d batches, want depth %d", got, depth)
	}
	if got := rp.free.len(); got != 0 {
		t.Errorf("free ring seeded with %d spares, want 0", got)
	}

	// Drain: the in-flight population returns to the channel queue.
	rp.drain()
	if got := ch.queue.len(); got != depth {
		t.Errorf("drain left %d batches in flight, want %d", got, depth)
	}

	// Rebuild twice more: the circulating population stays fixed.
	for i := 0; i < 2; i++ {
		rp, err = r.newRingPair(ch, nil)
		if err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
		if got := rp.data.len() + rp.free.len(); got != depth {
			t.Errorf("rebuild %d: ring population %d, want %d (must not grow)", i, got, depth)
		}
		rp.drain()
		if got := len(ch.free); got != 0 {
			t.Errorf("rebuild %d: recycle pool %d, want 0 (must not grow)", i, got)
		}
	}
}
