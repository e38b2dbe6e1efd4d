package fame

import (
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/token"
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

// TestEquivalenceWithMetrics pins the regression the observability layer
// must never introduce: Run and RunParallel stay cycle-exact equals with
// metrics enabled, and the shared counters agree across both schedulers.
func TestEquivalenceWithMetrics(t *testing.T) {
	const latency = clock.Cycles(8)
	const cycles = clock.Cycles(8 * 50)

	seqReg := obs.NewRegistry("seq")
	seq, seqSink := buildObsTopology(t, latency, 20)
	seq.EnableMetrics(seqReg)
	if err := seq.Run(cycles); err != nil {
		t.Fatal(err)
	}

	parReg := obs.NewRegistry("par")
	par, parSink := buildObsTopology(t, latency, 20)
	par.EnableMetrics(parReg)
	if err := par.RunParallel(cycles); err != nil {
		t.Fatal(err)
	}

	if len(seqSink.Received) == 0 {
		t.Fatal("sequential run delivered no tokens")
	}
	if len(seqSink.Received) != len(parSink.Received) {
		t.Fatalf("token count diverged: seq=%d par=%d", len(seqSink.Received), len(parSink.Received))
	}
	for i := range seqSink.Received {
		if seqSink.Received[i] != parSink.Received[i] {
			t.Fatalf("arrival %d diverged: seq=%+v par=%+v", i, seqSink.Received[i], parSink.Received[i])
		}
	}

	ss, ps := seqReg.Snapshot(), parReg.Snapshot()
	wantRounds := uint64(cycles / latency)
	for _, tc := range []struct {
		name string
		s    *obs.Snapshot
	}{{"seq", ss}, {"par", ps}} {
		if got := tc.s.Counters["fame_rounds_total"]; got != wantRounds {
			t.Errorf("%s fame_rounds_total = %d, want %d", tc.name, got, wantRounds)
		}
		if got := tc.s.Counters["fame_cycles_total"]; got != uint64(cycles) {
			t.Errorf("%s fame_cycles_total = %d, want %d", tc.name, got, cycles)
		}
		if got := tc.s.Gauges["fame_cycle"]; got != int64(cycles) {
			t.Errorf("%s fame_cycle = %d, want %d", tc.name, got, cycles)
		}
		if got := tc.s.Counters["fame_pool_drops_total"]; got != 0 {
			t.Errorf("%s fame_pool_drops_total = %d, want 0", tc.name, got)
		}
	}
	// Token counters are a pure function of target behaviour, so the two
	// schedulers must agree exactly.
	if st, pt := ss.Counters["fame_tokens_total"], ps.Counters["fame_tokens_total"]; st != pt || st == 0 {
		t.Errorf("fame_tokens_total diverged: seq=%d par=%d", st, pt)
	}
	for _, ep := range []string{"src", "wire", "sink"} {
		name := obs.Label("fame_endpoint_tokens_total", "endpoint", ep)
		if ss.Counters[name] != ps.Counters[name] {
			t.Errorf("%s diverged: seq=%d par=%d", name, ss.Counters[name], ps.Counters[name])
		}
	}
	// Tick timing is sampled, and both modes sample the same round
	// indices: each endpoint's histogram must hold exactly one observation
	// per sampled round in both modes.
	wantTicks := sampledRounds(wantRounds)
	for _, ep := range []string{"src", "wire", "sink"} {
		name := obs.Label("fame_tick_nanos", "endpoint", ep)
		if got := ss.Histograms[name].Count; got != wantTicks {
			t.Errorf("seq %s count = %d, want %d", name, got, wantTicks)
		}
		if got := ps.Histograms[name].Count; got != wantTicks {
			t.Errorf("par %s count = %d, want %d", name, got, wantTicks)
		}
	}
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
	reg := obs.NewRegistry("mixed")
	r, _ := buildObsTopology(t, latency, 50)
	r.EnableMetrics(reg)
	for i := 0; i < 8; i++ {
		if err := r.Run(latency * 4); err != nil {
			t.Fatal(err)
		}
		if err := r.RunParallel(latency * 32); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Snapshot()
	if got := s.Counters["fame_pool_drops_total"]; got != 0 {
		t.Errorf("fame_pool_drops_total = %d, want 0", got)
	}
	// Allocations must stay bounded by the circulating population (links
	// hold at most depth+3 batches per direction; 2 links * 2 directions),
	// not grow with the 256 parallel rounds driven above.
	if got := s.Counters["fame_pool_allocs_total"]; got > 32 {
		t.Errorf("fame_pool_allocs_total = %d, want a small constant (pool is leaking)", got)
	}
}

// TestMeasureTimesOnlyRoundLoop asserts Measure's wall time is exactly
// the round-loop time recorded by the runner itself (fame_run_wall_nanos),
// not an outer stopwatch that would fold build and ring construction in.
func TestMeasureTimesOnlyRoundLoop(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		reg := obs.NewRegistry("measure")
		r, _ := buildObsTopology(t, 8, 4)
		r.EnableMetrics(reg)
		rate, err := r.Measure(8*16, clock.DefaultTargetClock, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if rate.TargetCycles != 8*16 {
			t.Errorf("parallel=%v: TargetCycles = %d", parallel, rate.TargetCycles)
		}
		if rate.Wall <= 0 {
			t.Errorf("parallel=%v: non-positive wall %v", parallel, rate.Wall)
		}
		got := reg.Snapshot().Counters["fame_run_wall_nanos_total"]
		if got != uint64(rate.Wall.Nanoseconds()) {
			t.Errorf("parallel=%v: Measure wall %dns != round-loop wall %dns", parallel, rate.Wall.Nanoseconds(), got)
		}
	}
}

// TestEnableMetricsAfterBuild covers late attachment: a runner that has
// already run attaches to a registry and subsequent runs are counted.
func TestEnableMetricsAfterBuild(t *testing.T) {
	r, _ := buildObsTopology(t, 8, 4)
	if err := r.Run(8 * 2); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("late")
	r.EnableMetrics(reg)
	if err := r.Run(8 * 3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["fame_rounds_total"]; got != 3 {
		t.Errorf("fame_rounds_total = %d, want 3 (only post-attach rounds)", got)
	}
	// Detach again: further runs must not touch the registry.
	r.EnableMetrics(nil)
	if err := r.Run(8 * 3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["fame_rounds_total"]; got != 3 {
		t.Errorf("fame_rounds_total = %d after detach, want 3", got)
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

// silence unused-import vigilance if token stops being needed above.
var _ = token.Empty
