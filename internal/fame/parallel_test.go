package fame

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/snapshot"
	"repro/internal/token"
)

// hub is a partition-test stub: an inert endpoint with an arbitrary port
// count, standing in for a switch (whose per-round cost scales with its
// port count).
type hub struct {
	name  string
	ports int
}

func (h *hub) Name() string                            { return h.name }
func (h *hub) NumPorts() int                           { return h.ports }
func (h *hub) TickBatch(n int, in, out []*token.Batch) {}

// starRunner builds the bench-like star: one hub with `leaves` ports, one
// single-port leaf endpoint per port.
func starRunner(t *testing.T, leaves int) *Runner {
	t.Helper()
	r := NewRunner()
	sw := &hub{name: "sw", ports: leaves}
	r.Add(sw)
	for i := 0; i < leaves; i++ {
		leaf := &hub{name: "leaf" + string(rune('a'+i)), ports: 1}
		r.Add(leaf)
		if err := r.Connect(leaf, 0, sw, i, 8); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestSetWorkersValidation(t *testing.T) {
	r := NewRunner()
	if err := r.SetWorkers(-1); err == nil {
		t.Error("SetWorkers(-1) accepted")
	}
	if err := r.SetWorkers(0); err != nil {
		t.Errorf("SetWorkers(0) rejected: %v", err)
	}
	if got, want := r.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() with 0 = %d, want GOMAXPROCS %d", got, want)
	}
	if err := r.SetWorkers(3); err != nil {
		t.Fatal(err)
	}
	if got := r.Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}

// TestPartitionProperties checks the partitioner invariants on the
// bench-like star: every endpoint appears exactly once, parts are in index
// order, the part count never exceeds the worker count, and the result is
// a pure function of the topology (two calls agree).
func TestPartitionProperties(t *testing.T) {
	r := starRunner(t, 8)
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 12; workers++ {
		parts := r.partition(workers)
		if len(parts) > workers {
			t.Fatalf("workers=%d: %d parts", workers, len(parts))
		}
		if again := r.partition(workers); !reflect.DeepEqual(parts, again) {
			t.Fatalf("workers=%d: partition not deterministic:\n%v\n%v", workers, parts, again)
		}
		seen := make(map[int]bool)
		for _, part := range parts {
			if len(part) == 0 {
				t.Fatalf("workers=%d: empty part", workers)
			}
			for j, idx := range part {
				if j > 0 && part[j-1] >= idx {
					t.Fatalf("workers=%d: part %v not in index order", workers, part)
				}
				if seen[idx] {
					t.Fatalf("workers=%d: endpoint %d in two parts", workers, idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != 9 {
			t.Fatalf("workers=%d: partition covers %d of 9 endpoints", workers, len(seen))
		}
	}
}

// TestPartitionCoLocatesLinkedPairs: with slack in the balance cap, the
// endpoints of a link must land on the same worker so the link needs no
// synchronization. A two-endpoint chain split across two of four workers
// would be the pathological case.
func TestPartitionCoLocatesLinkedPairs(t *testing.T) {
	r := NewRunner()
	var eps []*hub
	for i := 0; i < 8; i++ {
		e := &hub{name: "e" + string(rune('a'+i)), ports: 1}
		eps = append(eps, e)
		r.Add(e)
	}
	for i := 0; i < 8; i += 2 {
		if err := r.Connect(eps[i], 0, eps[i+1], 0, 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	parts := r.partition(4)
	owner := make(map[int]int)
	for w, part := range parts {
		for _, idx := range part {
			owner[idx] = w
		}
	}
	for i := 0; i < 8; i += 2 {
		if owner[i] != owner[i+1] {
			t.Errorf("linked pair (%d,%d) split across workers %d/%d (parts %v)", i, i+1, owner[i], owner[i+1], parts)
		}
	}
	if len(parts) != 4 {
		t.Errorf("got %d parts, want 4 (one pair each): %v", len(parts), parts)
	}
}

// buildSweepTopology is a star with real traffic: two sources and a wire
// feeding two sinks plus a cross link, exercising multiple link latencies
// (step = gcd = 8) and an endpoint mix that forces cross-worker rings for
// every worker count > 1.
func buildSweepTopology(t *testing.T, inject bool) (*Runner, *Sink, *Sink) {
	t.Helper()
	r := NewRunner()
	srcA := NewSource("srcA")
	srcB := NewSource("srcB")
	wire := NewWire("wire")
	sinkA := NewSink("sinkA")
	sinkB := NewSink("sinkB")
	for _, e := range []Endpoint{srcA, srcB, wire, sinkA, sinkB} {
		r.Add(e)
	}
	if err := r.Connect(srcA, 0, wire, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(wire, 1, sinkB, 0, 16); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(srcB, 0, sinkA, 0, 24); err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 48; c++ {
		srcA.EmitAt(c, token.Token{Data: uint64(c) + 100, Valid: true, Last: c%4 == 3})
		srcB.EmitAt(c*2, token.Token{Data: uint64(c) + 500, Valid: true})
	}
	if inject {
		r.SetInjector(&dropOddInjector{mask: 0xff00})
	}
	return r, sinkA, sinkB
}

// TestWorkerSweepEquivalence is the tentpole determinism contract: for
// every worker count (including counts above the endpoint count), with and
// without fault injection, RunParallel must deliver streams bit-identical
// to Run. On a single-core host this still exercises the multi-worker ring
// path — workers make progress via Gosched.
func TestWorkerSweepEquivalence(t *testing.T) {
	const numEndpoints = 5 // buildSweepTopology registers five
	for _, inject := range []bool{false, true} {
		ref, refA, refB := buildSweepTopology(t, inject)
		if err := ref.Run(240); err != nil {
			t.Fatal(err)
		}
		if len(refA.Received) == 0 || len(refB.Received) == 0 {
			t.Fatal("reference run delivered no tokens")
		}
		for workers := 1; workers <= 7; workers++ {
			r, sa, sb := buildSweepTopology(t, inject)
			if err := r.SetWorkers(workers); err != nil {
				t.Fatal(err)
			}
			if err := r.RunParallel(240); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refA.Received, sa.Received) {
				t.Errorf("inject=%v workers=%d: sinkA diverged from sequential", inject, workers)
			}
			if !reflect.DeepEqual(refB.Received, sb.Received) {
				t.Errorf("inject=%v workers=%d: sinkB diverged from sequential", inject, workers)
			}
			// The effective worker count is what actually ran (capped at
			// the endpoint count, empty bins dropped).
			eff := r.EffectiveWorkers()
			if eff < 1 || eff > workers || eff > numEndpoints {
				t.Errorf("inject=%v workers=%d: EffectiveWorkers() = %d out of range [1, min(%d, %d)]",
					inject, workers, eff, workers, numEndpoints)
			}
		}
	}
}

// TestCheckpointMidParallelWorkers is the keystone snapshot property under
// the worker pool: checkpoint between RunParallel batches with forced
// multi-worker scheduling, restore, re-run — state bytes must match the
// uninterrupted run exactly. This is what requires runParallel to drain
// its rings back into the persistent channel queues.
func TestCheckpointMidParallelWorkers(t *testing.T) {
	const n, m = 64, 128
	save := func(r *Runner, a, z *pulse) []byte {
		var buf bytes.Buffer
		w, err := snapshot.NewWriter(&buf, snapshot.Header{Cycle: uint64(r.Cycle()), Step: uint64(r.Step())})
		if err != nil {
			t.Fatal(err)
		}
		w.Section("state")
		for _, s := range []snapshot.Snapshotter{r, a, z} {
			if err := s.Save(w); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	r1, a1, z1 := pulsePair()
	if err := r1.SetWorkers(2); err != nil {
		t.Fatal(err)
	}
	if err := r1.RunParallel(n); err != nil {
		t.Fatal(err)
	}
	ck := save(r1, a1, z1)
	if err := r1.RunParallel(m); err != nil {
		t.Fatal(err)
	}
	want := save(r1, a1, z1)

	for _, workers := range []int{1, 2, 3} {
		r2, a2, z2 := pulsePair()
		if err := r2.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}
		rd, _, err := snapshot.NewReader(bytes.NewReader(ck))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
		for _, s := range []snapshot.Snapshotter{r2, a2, z2} {
			if err := s.Restore(rd); err != nil {
				t.Fatal(err)
			}
		}
		if err := r2.RunParallel(m); err != nil {
			t.Fatal(err)
		}
		if got := save(r2, a2, z2); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: restored parallel run diverged from original", workers)
		}
	}
}

// TestRandomTopologyWorkerEquivalence reuses the property-test generator
// idea at a smaller scale: random stars, random worker counts, streams
// must match the sequential scheduler bit for bit.
func TestRandomTopologyWorkerEquivalence(t *testing.T) {
	for leaves := 2; leaves <= 5; leaves++ {
		build := func() (*Runner, []*Sink) {
			r := NewRunner()
			w := NewWire("w")
			r.Add(w)
			src := NewSource("src")
			r.Add(src)
			if err := r.Connect(src, 0, w, 0, 8); err != nil {
				t.Fatal(err)
			}
			var sinks []*Sink
			s := NewSink("s0")
			r.Add(s)
			sinks = append(sinks, s)
			if err := r.Connect(w, 1, s, 0, 8); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < leaves; i++ {
				extra := NewSource("x" + string(rune('0'+i)))
				es := NewSink("xs" + string(rune('0'+i)))
				r.Add(extra)
				r.Add(es)
				if err := r.Connect(extra, 0, es, 0, clock.Cycles(8*i)); err != nil {
					t.Fatal(err)
				}
				extra.EmitPacketAt(int64(i)*3, []uint64{uint64(i), uint64(i) * 7})
				sinks = append(sinks, es)
			}
			src.EmitPacketAt(1, []uint64{1, 2, 3})
			src.EmitPacketAt(33, []uint64{4})
			return r, sinks
		}
		ref, refSinks := build()
		if err := ref.Run(24 * 8); err != nil {
			t.Fatal(err)
		}
		for workers := 2; workers <= 4; workers++ {
			r, sinks := build()
			if err := r.SetWorkers(workers); err != nil {
				t.Fatal(err)
			}
			if err := r.RunParallel(24 * 8); err != nil {
				t.Fatal(err)
			}
			for i := range sinks {
				if !reflect.DeepEqual(refSinks[i].Received, sinks[i].Received) {
					t.Errorf("leaves=%d workers=%d sink %d diverged", leaves, workers, i)
				}
			}
		}
	}
}

// TestParallelKnobValidation: the worker count is the only scheduler knob.
// The deprecated SetMultiplexed toggle must change nothing — streams and
// the effective worker count are those of the same run without it.
func TestParallelKnobValidation(t *testing.T) {
	run := func(toggle bool) (*Runner, *Sink, *Sink) {
		r, sa, sb := buildSweepTopology(t, true)
		if err := r.SetWorkers(3); err != nil {
			t.Fatal(err)
		}
		r.SetMultiplexed(toggle)
		if err := r.RunParallel(240); err != nil {
			t.Fatal(err)
		}
		return r, sa, sb
	}
	plain, pa, pb := run(false)
	toggled, ta, tb := run(true)
	if !reflect.DeepEqual(pa.Received, ta.Received) || !reflect.DeepEqual(pb.Received, tb.Received) {
		t.Error("SetMultiplexed(true) changed the token streams")
	}
	if plain.EffectiveWorkers() != toggled.EffectiveWorkers() {
		t.Errorf("SetMultiplexed(true) changed EffectiveWorkers: %d vs %d", toggled.EffectiveWorkers(), plain.EffectiveWorkers())
	}
}

// TestPartitionEdgeCases pins the partitioner's behaviour at the corners
// the sweep topologies never reach: an endpoint heavier than the balance
// cap, more workers than endpoints, zero-port endpoints, and a chain that
// saturates the cap. Each case asserts coverage (every endpoint exactly
// once), the balance bound, and determinism.
func TestPartitionEdgeCases(t *testing.T) {
	cover := func(t *testing.T, r *Runner, parts [][]int, workers int) map[int]int {
		t.Helper()
		if len(parts) > workers {
			t.Fatalf("%d parts for %d workers", len(parts), workers)
		}
		if again := r.partition(workers); !reflect.DeepEqual(parts, again) {
			t.Fatalf("partition not deterministic:\n%v\n%v", parts, again)
		}
		owner := make(map[int]int)
		for w, part := range parts {
			if len(part) == 0 {
				t.Fatalf("empty part in %v", parts)
			}
			for _, idx := range part {
				if _, dup := owner[idx]; dup {
					t.Fatalf("endpoint %d in two parts: %v", idx, parts)
				}
				owner[idx] = w
			}
		}
		if len(owner) != len(r.endpoints) {
			t.Fatalf("partition covers %d of %d endpoints: %v", len(owner), len(r.endpoints), parts)
		}
		return owner
	}

	t.Run("heavy endpoint exceeds cap", func(t *testing.T) {
		// Hub weight 16 > cap ceil(32/4)=8: it cannot merge or share, so
		// it must sit alone while the leaves level the remaining bins.
		r := starRunner(t, 16)
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		parts := r.partition(4)
		owner := cover(t, r, parts, 4)
		hubPart := parts[owner[0]]
		if len(hubPart) != 1 {
			t.Errorf("over-cap hub shares a part: %v", hubPart)
		}
		for w, part := range parts {
			if w == owner[0] {
				continue
			}
			if len(part) > 8 { // leaf weight 1 each; cap is 8
				t.Errorf("leaf part %d weight %d exceeds cap 8", w, len(part))
			}
		}
	})

	t.Run("workers exceed endpoints", func(t *testing.T) {
		r, _, _ := buildSweepTopology(t, false)
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		parts := r.partition(12)
		cover(t, r, parts, 12)
		if len(parts) > 5 {
			t.Errorf("%d parts for 5 endpoints", len(parts))
		}
	})

	t.Run("zero-port endpoints", func(t *testing.T) {
		// Zero-port endpoints weigh 1 (cost floor), partition cleanly,
		// and run without port bindings.
		r := NewRunner()
		a := NewSource("a")
		z := NewSink("z")
		idle1 := &hub{name: "idle1", ports: 0}
		idle2 := &hub{name: "idle2", ports: 0}
		for _, e := range []Endpoint{a, idle1, z, idle2} {
			r.Add(e)
		}
		if err := r.Connect(a, 0, z, 0, 8); err != nil {
			t.Fatal(err)
		}
		a.EmitAt(0, token.Token{Data: 9, Valid: true})
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		cover(t, r, r.partition(3), 3)
		if err := r.SetWorkers(3); err != nil {
			t.Fatal(err)
		}
		if err := r.RunParallel(16); err != nil {
			t.Fatal(err)
		}
		if len(z.Received) != 1 {
			t.Errorf("sink received %d tokens, want 1", len(z.Received))
		}
	})

	t.Run("balance cap saturation", func(t *testing.T) {
		// A six-endpoint chain (two ports each, weight 2, cap 4): pairwise
		// merges land exactly on the cap, every further merge is refused,
		// and packing degenerates to one pair per worker — the fully
		// saturated fixed point.
		r := NewRunner()
		var eps []*hub
		for i := 0; i < 6; i++ {
			e := &hub{name: "c" + string(rune('0'+i)), ports: 2}
			eps = append(eps, e)
			r.Add(e)
		}
		for i := 0; i < 5; i++ {
			if err := r.Connect(eps[i], 1, eps[i+1], 0, 8); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		parts := r.partition(3)
		cover(t, r, parts, 3)
		if want := [][]int{{0, 1}, {2, 3}, {4, 5}}; !reflect.DeepEqual(parts, want) {
			t.Errorf("saturated chain packed %v, want %v", parts, want)
		}
	})
}

// TestPartitionPackingTieBreak is the packing-determinism golden: six
// equal-weight isolated endpoints onto three workers must round-robin by
// ascending index (the PackUnits tie-break the partitioner inherits), not
// land in whatever order a map iteration produced.
func TestPartitionPackingTieBreak(t *testing.T) {
	// partition is a pure function of endpoints and links; no build()
	// needed (a link-free topology would not build anyway).
	r := NewRunner()
	for i := 0; i < 6; i++ {
		r.Add(&hub{name: "i" + string(rune('0'+i)), ports: 1})
	}
	parts := r.partition(3)
	if want := [][]int{{0, 3}, {1, 4}, {2, 5}}; !reflect.DeepEqual(parts, want) {
		t.Errorf("tie-break packed %v, want %v", parts, want)
	}
}

// TestCompilePlanSpans audits the one plan builder: every worker's plan
// lists its part's endpoints in registration order, member spans tile the
// flat port arrays exactly, and a port binds to a ring exactly when its
// link crosses workers.
func TestCompilePlanSpans(t *testing.T) {
	r, _, _ := buildSweepTopology(t, false)
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	parts := r.partition(3)
	owner := make([]int, len(r.endpoints))
	for w, eps := range parts {
		for _, i := range eps {
			owner[i] = w
		}
	}
	rings, err := r.buildCrossRings(owner)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, rp := range rings {
			rp.drain()
		}
	}()
	if len(rings) == 0 {
		t.Fatal("partition(3) of the sweep topology left no link crossing workers")
	}
	for w, eps := range parts {
		p := r.compile(eps)
		if len(p.members) != len(eps) {
			t.Errorf("plan %d has %d members, part has %d endpoints", w, len(p.members), len(eps))
		}
		at := 0
		for mi, mem := range p.members {
			i := eps[mi]
			if mem.ep != r.endpoints[i] {
				t.Errorf("plan %d member %d is %s, want endpoint %d (registration order)", w, mi, mem.name, i)
			}
			if mem.lo != at {
				t.Errorf("plan %d member %d span starts at %d, want %d (spans must tile)", w, mi, mem.lo, at)
			}
			if want := r.endpoints[i].NumPorts(); mem.hi-mem.lo != want {
				t.Errorf("plan %d member %d span width %d, want %d ports", w, mi, mem.hi-mem.lo, want)
			}
			for q := mem.lo; q < mem.hi; q++ {
				if ch := r.outCh[i][q-mem.lo]; ch != nil {
					if cross := owner[ch.cons] != w; cross != (p.out[q].rp != nil) {
						t.Errorf("plan %d member %d port %d: crosses workers %v, bound to ring %v", w, mi, q-mem.lo, cross, p.out[q].rp != nil)
					}
				}
			}
			at = mem.hi
		}
		if at != len(p.in) || len(p.in) != len(p.out) || len(p.in) != len(p.ins) || len(p.in) != len(p.outs) {
			t.Errorf("plan %d flat arrays ragged: spans end %d, in %d, out %d, ins %d, outs %d",
				w, at, len(p.in), len(p.out), len(p.ins), len(p.outs))
		}
	}
}
