package fame

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/token"
)

// TestBatchRingFIFO drives the ring through growth and wrap-around and
// checks strict FIFO order against a reference slice.
func TestBatchRingFIFO(t *testing.T) {
	var r batchRing
	var ref []*token.Batch
	mk := func(id int) *token.Batch {
		b := token.NewBatch(4)
		b.Put(0, token.Token{Data: uint64(id), Valid: true})
		return b
	}
	id := 0
	// Interleave pushes and pops with varying phase so head walks all the
	// way around the buffer several times, across multiple growths.
	for phase := 0; phase < 50; phase++ {
		for i := 0; i < phase%7+1; i++ {
			b := mk(id)
			id++
			r.push(b)
			ref = append(ref, b)
		}
		for i := 0; i < phase%5 && r.len() > 0; i++ {
			got := r.pop()
			want := ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("phase %d: pop = batch %d, want %d",
					phase, got.Data[0], want.Data[0])
			}
		}
		if r.len() != len(ref) {
			t.Fatalf("phase %d: len = %d, want %d", phase, r.len(), len(ref))
		}
		for i := 0; i < r.len(); i++ {
			if r.at(i) != ref[i] {
				t.Fatalf("phase %d: at(%d) mismatch", phase, i)
			}
		}
	}
	for r.len() > 0 {
		if got, want := r.pop(), ref[0]; got != want {
			t.Fatal("drain order mismatch")
		}
		ref = ref[1:]
	}
}

// TestBatchRingPopReleasesReference makes sure pop nils the stored slot;
// otherwise the ring would pin every batch that ever passed through it.
func TestBatchRingPopReleasesReference(t *testing.T) {
	var r batchRing
	r.push(token.NewBatch(1))
	r.pop()
	for _, slot := range r.buf {
		if slot != nil {
			t.Fatal("pop left a batch reference in the ring")
		}
	}
}

// BenchmarkChannelPop compares the ring against the old copy-shift
// dequeue at the in-flight depth a LinkLatency=6400, step=1 link carries
// (6400 batches). The shift variant is the pre-fix implementation kept
// inline for comparison; each of its pops moves the whole queue.
func BenchmarkChannelPop(b *testing.B) {
	const depth = 6400
	b.Run("ring", func(b *testing.B) {
		var r batchRing
		for i := 0; i < depth; i++ {
			r.push(token.NewBatch(1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.push(r.pop())
		}
	})
	b.Run("shift", func(b *testing.B) {
		queue := make([]*token.Batch, 0, depth+1)
		for i := 0; i < depth; i++ {
			queue = append(queue, token.NewBatch(1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := queue[0]
			copy(queue, queue[1:])
			queue = queue[:len(queue)-1]
			queue = append(queue, batch)
		}
	})
}

// BenchmarkHighLatencyLink runs a whole topology at LinkLatency=6400 with
// the step forced to 1, so every channel holds 6400 in-flight batches and
// each round pops from that depth. Before the ring fix, channel.pop's
// copy-shift made this O(latency) per round; the benchmark exists to keep
// that from regressing.
func BenchmarkHighLatencyLink(b *testing.B) {
	const latency = 6400
	r := NewRunner()
	a := &echo{name: "a"}
	z := &echo{name: "z"}
	r.Add(a)
	r.Add(z)
	if err := r.Connect(a, 0, z, 0, latency); err != nil {
		b.Fatal(err)
	}
	if err := r.SetStepOverride(1); err != nil {
		b.Fatal(err)
	}
	// Prime past build and the first full latency window.
	if err := r.Run(latency); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := r.Run(clock.Cycles(b.N)); err != nil {
		b.Fatal(err)
	}
}
