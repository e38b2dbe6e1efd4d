package fame

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/token"
)

// passthru forwards tokens from port 0 to port 1, the minimal two-port
// pass-through for prepass tests.
type passthru struct {
	name string
}

func (r *passthru) Name() string  { return r.name }
func (r *passthru) NumPorts() int { return 2 }
func (r *passthru) TickBatch(n int, in, out []*token.Batch) {
	for _, s := range in[0].Slots {
		out[1].Put(int(s.Offset), s.Tok)
	}
}

// eagerRelay additionally implements EagerStarter and checks the
// contract from the caller's side: StartBatch runs exactly once before
// each TickBatch, on the same input storage the tick then receives.
type eagerRelay struct {
	passthru
	mu       sync.Mutex
	starts   int
	ticks    int
	orderBad bool
	inBad    bool
	lastIn0  *token.Batch
	startSum uint64 // token data observed at StartBatch time
}

func (e *eagerRelay) StartBatch(n int, in []*token.Batch) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.starts++
	e.lastIn0 = in[0]
	for _, s := range in[0].Slots {
		e.startSum += s.Tok.Data
	}
}

func (e *eagerRelay) TickBatch(n int, in, out []*token.Batch) {
	e.mu.Lock()
	if e.starts != e.ticks+1 {
		e.orderBad = true
	}
	if in[0] != e.lastIn0 {
		e.inBad = true
	}
	e.ticks++
	e.mu.Unlock()
	e.passthru.TickBatch(n, in, out)
}

// countingInjector counts FilterInput calls per endpoint so the test can
// assert the prepass filters an eager endpoint's inputs exactly once per
// round (not zero times, not twice).
type countingInjector struct {
	mu      sync.Mutex
	inCalls map[string]int
}

func (c *countingInjector) FilterInput(ep string, port int, start clock.Cycles, b *token.Batch) {
	c.mu.Lock()
	c.inCalls[ep+":"+string(rune('0'+port))]++
	c.mu.Unlock()
}
func (c *countingInjector) FilterOutput(string, int, clock.Cycles, *token.Batch) {}

// TestEagerStarterPrepass drives a topology containing an EagerStarter
// endpoint through one worker and through two, and asserts, for each: StartBatch
// ran once per round strictly before TickBatch with the identical input
// batch; the injector filtered the eager inputs exactly once per round;
// and the delivered token stream is bit-identical to the same topology
// built with a plain (non-eager) passthru.
func TestEagerStarterPrepass(t *testing.T) {
	const lat = 8
	const cycles = 16 * lat

	type mode struct {
		name string
		run  func(r *Runner) error
	}
	modes := []mode{
		{"sequential", func(r *Runner) error { return r.Run(cycles) }},
		{"parallel", func(r *Runner) error {
			if err := r.SetWorkers(2); err != nil {
				return err
			}
			return r.RunParallel(cycles)
		}},
	}

	build := func(mid Endpoint) (*Runner, *Sink) {
		r := NewRunner()
		src := NewSource("src")
		sink := NewSink("sink")
		r.Add(src)
		r.Add(mid)
		r.Add(sink)
		if err := r.Connect(src, 0, mid, 0, lat); err != nil {
			t.Fatal(err)
		}
		if err := r.Connect(mid, 1, sink, 0, lat); err != nil {
			t.Fatal(err)
		}
		src.EmitPacketAt(3, []uint64{7, 8, 9})
		src.EmitPacketAt(40, []uint64{11})
		return r, sink
	}

	for _, md := range modes {
		t.Run(md.name, func(t *testing.T) {
			inj := &countingInjector{inCalls: make(map[string]int)}

			plainR, plainSink := build(&passthru{name: "mid"})
			plainR.SetInjector(inj)
			if err := md.run(plainR); err != nil {
				t.Fatal(err)
			}

			eg := &eagerRelay{passthru: passthru{name: "mid"}}
			eagerR, eagerSink := build(eg)
			eagerInj := &countingInjector{inCalls: make(map[string]int)}
			eagerR.SetInjector(eagerInj)
			if err := md.run(eagerR); err != nil {
				t.Fatal(err)
			}

			rounds := cycles / lat
			if eg.starts != rounds || eg.ticks != rounds {
				t.Errorf("starts = %d, ticks = %d, want %d each", eg.starts, eg.ticks, rounds)
			}
			if eg.orderBad {
				t.Error("TickBatch ran without a preceding StartBatch for its round")
			}
			if eg.inBad {
				t.Error("TickBatch input differs from the batch StartBatch received")
			}
			if eg.startSum == 0 {
				t.Error("StartBatch never observed the emitted tokens")
			}
			if !reflect.DeepEqual(plainSink.Received, eagerSink.Received) {
				t.Errorf("eager and plain streams differ:\nplain: %+v\neager: %+v",
					plainSink.Received, eagerSink.Received)
			}
			for _, key := range []string{"mid:0", "mid:1"} {
				if got, want := eagerInj.inCalls[key], inj.inCalls[key]; got != want {
					t.Errorf("injector FilterInput(%s) ran %d times under eager, %d plain", key, got, want)
				}
			}
		})
	}
}
