package fame

import (
	"runtime"
	"testing"

	"repro/internal/clock"
)

// buildObsTopology wires src -> wire -> sink with the given link latency
// and a programmed packet stream, returning the runner and sink.
func buildObsTopology(t *testing.T, latency clock.Cycles, packets int) (*Runner, *Sink) {
	t.Helper()
	r := NewRunner()
	src := NewSource("src")
	wire := NewWire("wire")
	sink := NewSink("sink")
	r.Add(src)
	r.Add(wire)
	r.Add(sink)
	if err := r.Connect(src, 0, wire, 0, latency); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(wire, 1, sink, 0, latency); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < packets; p++ {
		src.EmitPacketAt(int64(p)*16, []uint64{uint64(p) + 1, uint64(p) + 2})
	}
	return r, sink
}

// TestParallelSteadyStateAllocs asserts the batch-pool property: once the
// parallel runner's batch population is warm, additional rounds must not
// allocate. Before the pool fix, the undersized free ring dropped recycled
// batches and every round allocated a fresh replacement, so allocations
// grew linearly with round count. The workers=2 and workers=3 variants
// force the cross-worker SPSC ring path even on a single-core host, so
// the zero-steady-state-alloc property is asserted for the ring transport
// too, not just the delegated sequential loop.
func TestParallelSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{0, 2, 3} {
		const latency = clock.Cycles(8)
		r, _ := buildObsTopology(t, latency, 0) // idle: the pool is the only allocator in play
		if err := r.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}

		// Warm up: first rounds legitimately allocate the circulating batches.
		if err := r.RunParallel(latency * 64); err != nil {
			t.Fatal(err)
		}

		measure := func(rounds clock.Cycles) uint64 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := r.RunParallel(latency * rounds); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}

		// Per-call overhead (worker goroutines, rings, plans) is identical
		// for both calls, so the difference isolates the per-round cost.
		short := measure(16)
		long := measure(16 + 512)
		if long > short {
			perRound := float64(long-short) / 512
			if perRound > 0.5 {
				t.Errorf("workers=%d: parallel rounds allocate in steady state: %.2f allocs/round (short=%d long=%d)", workers, perRound, short, long)
			}
		}
	}
}

// TestRunStepZeroAllocs: a distributed shard calls Run(step) once per
// token window, so a warm Run must compile nothing and allocate nothing
// per call — the one-worker plan is cached on the runner.
func TestRunStepZeroAllocs(t *testing.T) {
	r := NewRunner()
	src := NewSource("src")
	sink := NewSink("sink")
	r.Add(src)
	r.Add(sink)
	if err := r.Connect(src, 0, sink, 0, 8); err != nil {
		t.Fatal(err)
	}
	step := r.Step()
	if err := r.Run(4 * step); err != nil {
		t.Fatal(err)
	}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { err = r.Run(step) }); allocs != 0 {
		t.Errorf("Run(step) allocates %.1f times per call, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelPoolNoDropsUnderMixedRuns drives alternating sequential and
// parallel runs (the seeding path the original ring sizing got wrong) and
// asserts the pool tripwires stay clean.
func TestParallelPoolNoDropsUnderMixedRuns(t *testing.T) {
	const latency = clock.Cycles(4)
	r, _ := buildObsTopology(t, latency, 50)
	for i := 0; i < 8; i++ {
		if err := r.Run(latency * 4); err != nil {
			t.Fatal(err)
		}
		if err := r.RunParallel(latency * 32); err != nil {
			t.Fatal(err)
		}
	}
	allocs, drops := r.PoolStats()
	if drops != 0 {
		t.Errorf("pool drops = %d, want 0", drops)
	}
	// Allocations must stay bounded by the circulating population (links
	// hold at most depth+3 batches per direction; 2 links * 2 directions),
	// not grow with the 256 parallel rounds driven above.
	if allocs > 32 {
		t.Errorf("pool allocs = %d, want a small constant (pool is leaking)", allocs)
	}
}

// BenchmarkParallelSteadyState reports allocs/op for warm parallel rounds;
// with the pool fix it must show zero allocations per round (the fixed
// per-call setup amortises to ~0 over the 256 rounds per op).
func BenchmarkParallelSteadyState(b *testing.B) {
	r := NewRunner()
	src := NewSource("src")
	sink := NewSink("sink")
	r.Add(src)
	r.Add(sink)
	if err := r.Connect(src, 0, sink, 0, 8); err != nil {
		b.Fatal(err)
	}
	if err := r.RunParallel(8 * 64); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RunParallel(8 * 256); err != nil {
			b.Fatal(err)
		}
	}
}
