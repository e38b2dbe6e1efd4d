package minheap

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/clock"
)

// TestDrainOrder interleaves pushes and pops against a sorted model: every
// pop must return the (At, Seq)-least queued entry.
func TestDrainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Heap[int]
	var model []Entry[int]
	var seq uint64
	for step := 0; step < 5000; step++ {
		if len(model) == 0 || rng.Intn(3) > 0 {
			at := clock.Cycles(rng.Intn(64)) // many ties on At
			h.Push(at, seq, int(seq))
			model = append(model, Entry[int]{At: at, Seq: seq, Val: int(seq)})
			seq++
			continue
		}
		sort.Slice(model, func(i, j int) bool { return model[i].before(&model[j]) })
		if got := *h.Min(); got != model[0] {
			t.Fatalf("step %d: Min = %+v, want %+v", step, got, model[0])
		}
		if got := h.Pop(); got != model[0] {
			t.Fatalf("step %d: Pop = %+v, want %+v", step, got, model[0])
		}
		model = model[1:]
		if h.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, h.Len(), len(model))
		}
	}
}

func TestWarmHeapDoesNotAllocate(t *testing.T) {
	var h Heap[*int]
	v := new(int)
	for i := 0; i < 64; i++ {
		h.Push(clock.Cycles(i), uint64(i), v)
	}
	for h.Len() > 0 {
		h.Pop()
	}
	var seq uint64 = 64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			h.Push(clock.Cycles(63-i), seq, v)
			seq++
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm push/pop allocated %v times per run", allocs)
	}
}
