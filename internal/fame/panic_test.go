package fame

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/snapshot"
	"repro/internal/token"
)

// relay is a stateful two-port forwarder with an optional time bomb: at
// target cycle panicAt its TickBatch panics, standing in for a buggy
// device model. Save/Restore make it checkpoint-rewindable so the tests
// can prove a contained panic costs a rewind, not the runner.
type relay struct {
	name    string
	cycle   int64
	hash    uint64
	panicAt int64 // absolute target cycle to panic at; <0 = disarmed
}

func (r *relay) Name() string  { return r.name }
func (r *relay) NumPorts() int { return 2 }

func (r *relay) TickBatch(n int, in, out []*token.Batch) {
	if r.panicAt >= 0 && r.cycle <= r.panicAt && r.panicAt < r.cycle+int64(n) {
		panic(fmt.Sprintf("deliberate fault at cycle %d", r.panicAt))
	}
	for p := 0; p < 2; p++ {
		in[p].Each(func(offset int, tok token.Token) {
			r.hash = r.hash*1099511628211 ^ uint64(r.cycle+int64(offset)) ^ tok.Data ^ uint64(p)<<56
			out[1-p].Put(offset, tok)
		})
	}
	r.cycle += int64(n)
}

func (r *relay) Save(w *snapshot.Writer) error     { return r.state(snapshot.Encode(w)) }
func (r *relay) Restore(rd *snapshot.Reader) error { return r.state(snapshot.Decode(rd)) }

func (r *relay) state(s *snapshot.State) error {
	s.Begin("test.relay", 1)
	snapshot.Fixed(s, &r.cycle)
	s.U64(&r.hash)
	return s.Err()
}

// faultChain builds a — r1 — r2 — z with latency-8 links. The weights
// (1,2,2,1) split into exactly two balanced groups under two workers,
// with the r1—r2 link crossing workers, so the parallel test exercises
// the abort path through cross-worker rings.
func faultChain() (*Runner, *pulse, *relay, *relay, *pulse) {
	r := NewRunner()
	a := &pulse{name: "a", period: 3}
	r1 := &relay{name: "r1", panicAt: -1}
	r2 := &relay{name: "r2", panicAt: -1}
	z := &pulse{name: "z", period: 5}
	for _, e := range []Endpoint{a, r1, r2, z} {
		r.Add(e)
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(r.Connect(a, 0, r1, 0, 8))
	must(r.Connect(r1, 1, r2, 0, 8))
	must(r.Connect(r2, 1, z, 0, 8))
	return r, a, r1, r2, z
}

func saveChainState(t *testing.T, r *Runner, comps ...snapshot.Snapshotter) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshot.Header{Cycle: uint64(r.Cycle()), Step: uint64(r.Step())})
	if err != nil {
		t.Fatal(err)
	}
	w.Section("state")
	if err := r.Save(w); err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if err := c.Save(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func restoreChainState(t *testing.T, stream []byte, r *Runner, comps ...snapshot.Snapshotter) {
	t.Helper()
	rd, _, err := snapshot.NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(rd); err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if err := c.Restore(rd); err != nil {
			t.Fatal(err)
		}
	}
}

// testPanicContainment is the satellite's core property, shared by Run
// and RunParallel: a deliberately panicking endpoint surfaces as a
// structured EndpointPanicError naming the endpoint and cycle window, the
// runner refuses further runs and saves while poisoned, and restoring the
// pre-panic checkpoint then re-running (with the fault disarmed) lands
// bit-identical to an undisturbed run.
func testPanicContainment(t *testing.T, parallel bool) {
	run := func(r *Runner, cycles clock.Cycles) error {
		if parallel {
			return r.RunParallel(cycles)
		}
		return r.Run(cycles)
	}

	// Undisturbed reference.
	ref, aR, r1R, r2R, zR := faultChain()
	ref.SetWorkers(2)
	if err := run(ref, 64); err != nil {
		t.Fatal(err)
	}
	want := saveChainState(t, ref, aR, r1R, r2R, zR)

	// Faulty run: checkpoint at 32, arm r2 to blow up at cycle 40.
	r, a, r1, r2, z := faultChain()
	r.SetWorkers(2)
	if err := run(r, 32); err != nil {
		t.Fatal(err)
	}
	ck := saveChainState(t, r, a, r1, r2, z)
	r2.panicAt = 40

	err := run(r, 32)
	var pe *EndpointPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("armed run returned %v, want *EndpointPanicError", err)
	}
	if pe.Endpoint != "r2" {
		t.Errorf("panic attributed to %q, want \"r2\"", pe.Endpoint)
	}
	if pe.Cycle < 32 || pe.Cycle >= 64 {
		t.Errorf("panic cycle window %d outside the armed run [32, 64)", pe.Cycle)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "TickBatch") {
		t.Error("panic error carries no usable stack")
	}
	// A torn run leaves target time at the run's start, the last boundary
	// a caller could have checkpointed.
	if got := r.Cycle(); got != 32 {
		t.Errorf("cycle = %d after torn run, want the run's start 32", got)
	}

	// Poisoned: running and saving must both refuse.
	if err := run(r, 32); !errors.Is(err, ErrPoisoned) {
		t.Errorf("run on poisoned runner returned %v, want ErrPoisoned", err)
	}
	var buf bytes.Buffer
	w, _ := snapshot.NewWriter(&buf, snapshot.Header{})
	w.Section("state")
	if err := r.Save(w); !errors.Is(err, ErrPoisoned) {
		t.Errorf("Save on poisoned runner returned %v, want ErrPoisoned", err)
	}

	// Rewind, disarm, replay: must match the undisturbed reference bit
	// for bit.
	restoreChainState(t, ck, r, a, r1, r2, z)
	r2.panicAt = -1
	if err := run(r, 32); err != nil {
		t.Fatalf("run after restore: %v", err)
	}
	got := saveChainState(t, r, a, r1, r2, z)
	if !bytes.Equal(got, want) {
		t.Error("recovered run diverged from undisturbed run (state bytes differ)")
	}
}

func TestSequentialPanicContainment(t *testing.T) { testPanicContainment(t, false) }
func TestParallelPanicContainment(t *testing.T)   { testPanicContainment(t, true) }

// disjointPairs is a 4-endpoint topology made of two independent pairs —
// the shape of one shard process hosting two re-packed partition units.
func disjointPairs() (*Runner, map[string]*pulse) {
	r := NewRunner()
	ps := map[string]*pulse{}
	mk := func(name string, period int64) *pulse {
		p := &pulse{name: name, period: period}
		ps[name] = p
		r.Add(p)
		return p
	}
	a, b, c, d := mk("a", 3), mk("b", 5), mk("c", 7), mk("d", 11)
	if err := r.Connect(a, 0, b, 0, 8); err != nil {
		panic(err)
	}
	if err := r.Connect(c, 0, d, 0, 8); err != nil {
		panic(err)
	}
	return r, ps
}

// TestChannelUnitRoundTrip drives the name-keyed per-unit checkpoint
// APIs the partition layer uses: each unit (a,b) and (c,d) is saved to
// its own stream, restored into a fresh runner unit by unit, time is
// jumped with SetCycle, and the continuation must match an undisturbed
// run exactly.
func TestChannelUnitRoundTrip(t *testing.T) {
	unitAB := func(n string) bool { return n == "a" || n == "b" }
	unitCD := func(n string) bool { return n == "c" || n == "d" }

	saveUnit := func(r *Runner, ps map[string]*pulse, include func(string) bool, names ...string) []byte {
		var buf bytes.Buffer
		w, err := snapshot.NewWriter(&buf, snapshot.Header{Cycle: uint64(r.Cycle()), Step: uint64(r.Step())})
		if err != nil {
			t.Fatal(err)
		}
		w.Section("unit")
		if err := r.SaveChannels(w, include); err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if err := ps[n].Save(w); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	r1, ps1 := disjointPairs()
	if err := r1.Run(32); err != nil {
		t.Fatal(err)
	}
	abStream := saveUnit(r1, ps1, unitAB, "a", "b")
	cdStream := saveUnit(r1, ps1, unitCD, "c", "d")
	if err := r1.Run(32); err != nil {
		t.Fatal(err)
	}

	r2, ps2 := disjointPairs()
	restoreUnit := func(stream []byte, include func(string) bool, names ...string) {
		rd, _, err := snapshot.NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
		if err := r2.RestoreChannels(rd, include); err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if err := ps2[n].Restore(rd); err != nil {
				t.Fatal(err)
			}
		}
	}
	restoreUnit(abStream, unitAB, "a", "b")
	restoreUnit(cdStream, unitCD, "c", "d")
	if err := r2.SetCycle(32); err != nil {
		t.Fatal(err)
	}
	if err := r2.Run(32); err != nil {
		t.Fatal(err)
	}
	for n := range ps1 {
		if ps1[n].hash != ps2[n].hash {
			t.Errorf("endpoint %q: hash %#x after unit restore, want %#x", n, ps2[n].hash, ps1[n].hash)
		}
	}

	// Restoring a unit stream under a narrower include must fail loudly,
	// not partially apply.
	rd, _, err := snapshot.NewReader(bytes.NewReader(abStream))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	r3, _ := disjointPairs()
	if err := r3.RestoreChannels(rd, func(n string) bool { return n == "a" }); err == nil {
		t.Error("RestoreChannels with mismatched include succeeded")
	}

	// SetCycle off the step grid is an error.
	if err := r2.SetCycle(33); err == nil {
		t.Error("SetCycle(33) with step 8 succeeded")
	}
}
