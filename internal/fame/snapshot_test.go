package fame

import (
	"bytes"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/snapshot/snaptest"
	"repro/internal/token"
)

// pulse emits a token every period cycles (a pure function of target
// cycle) and records arrivals; it snapshots its own cycle counter and a
// running hash of what it has seen, making it a minimal stateful endpoint
// for restore-continuation tests.
type pulse struct {
	name   string
	period int64
	cycle  int64
	hash   uint64
}

func (p *pulse) Name() string  { return p.name }
func (p *pulse) NumPorts() int { return 1 }

func (p *pulse) TickBatch(n int, in, out []*token.Batch) {
	in[0].Each(func(offset int, tok token.Token) {
		cyc := p.cycle + int64(offset)
		p.hash = p.hash*1099511628211 ^ uint64(cyc) ^ tok.Data
	})
	for i := 0; i < n; i++ {
		if (p.cycle+int64(i))%p.period == 0 {
			out[0].Put(i, token.Token{Data: uint64(p.cycle + int64(i)), Valid: true, Last: true})
		}
	}
	p.cycle += int64(n)
}

func (p *pulse) Save(w *snapshot.Writer) error    { return p.state(snapshot.Encode(w)) }
func (p *pulse) Restore(r *snapshot.Reader) error { return p.state(snapshot.Decode(r)) }

func (p *pulse) state(s *snapshot.State) error {
	s.Begin("test.pulse", 1)
	snapshot.Fixed(s, &p.cycle)
	s.U64(&p.hash)
	return s.Err()
}

// pulsePair builds a two-endpoint topology with traffic in both
// directions across a latency-8 link.
func pulsePair() (*Runner, *pulse, *pulse) {
	r := NewRunner()
	a := &pulse{name: "a", period: 3}
	z := &pulse{name: "z", period: 5}
	r.Add(a)
	r.Add(z)
	if err := r.Connect(a, 0, z, 0, 8); err != nil {
		panic(err)
	}
	return r, a, z
}

func TestRunnerSnapshotConformance(t *testing.T) {
	src, _, _ := pulsePair()
	if err := src.Run(64); err != nil {
		t.Fatal(err)
	}
	snaptest.RoundTrip(t, src, func() snapshot.Snapshotter {
		r, _, _ := pulsePair()
		return r
	})
}

// TestRunnerSnapshotContinuation is the fame-layer slice of the keystone
// property: checkpoint at N, keep running to N+M, then restore a fresh
// topology from the checkpoint and run the same M — endpoint hashes and
// final cycles must match exactly.
func TestRunnerSnapshotContinuation(t *testing.T) {
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
	if err := r1.Run(n); err != nil {
		t.Fatal(err)
	}
	ck := save(r1, a1, z1)
	if err := r1.Run(m); err != nil {
		t.Fatal(err)
	}
	want := save(r1, a1, z1)

	for _, parallel := range []bool{false, true} {
		r2, a2, z2 := pulsePair()
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
		if r2.Cycle() != n {
			t.Fatalf("restored cycle = %d, want %d", r2.Cycle(), n)
		}
		if parallel {
			err = r2.RunParallel(m)
		} else {
			err = r2.Run(m)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := save(r2, a2, z2)
		if !bytes.Equal(got, want) {
			t.Errorf("parallel=%v: restored run diverged from original (state bytes differ)", parallel)
		}
		if a2.hash != a1.hash || z2.hash != z1.hash {
			t.Errorf("parallel=%v: endpoint hashes diverged", parallel)
		}
	}
}

// TestRunnerRestoreRejectsMismatchedTopology feeds a checkpoint into
// runners whose structure differs from the source.
func TestRunnerRestoreRejectsMismatchedTopology(t *testing.T) {
	src, _, _ := pulsePair()
	if err := src.Run(32); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshot.Header{})
	if err != nil {
		t.Fatal(err)
	}
	w.Section("state")
	if err := src.Save(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	tryRestore := func(build func() *Runner) error {
		rd, _, err := snapshot.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
		return build().Restore(rd)
	}

	// Different latency → different step.
	if err := tryRestore(func() *Runner {
		r := NewRunner()
		a := &pulse{name: "a", period: 3}
		z := &pulse{name: "z", period: 5}
		r.Add(a)
		r.Add(z)
		if err := r.Connect(a, 0, z, 0, 16); err != nil {
			t.Fatal(err)
		}
		return r
	}); err == nil {
		t.Error("restore into different-latency topology did not error")
	}

	// Extra endpoint pair → different channel count.
	if err := tryRestore(func() *Runner {
		r := NewRunner()
		eps := []*pulse{{name: "a", period: 3}, {name: "z", period: 5}, {name: "x", period: 7}, {name: "y", period: 9}}
		for _, e := range eps {
			r.Add(e)
		}
		if err := r.Connect(eps[0], 0, eps[1], 0, 8); err != nil {
			t.Fatal(err)
		}
		if err := r.Connect(eps[2], 0, eps[3], 0, 8); err != nil {
			t.Fatal(err)
		}
		return r
	}); err == nil {
		t.Error("restore into larger topology did not error")
	}
}

// TestMultiplexSnapshotDelegates checks the FAME-5 wrapper saves and
// restores through to its children.
func TestMultiplexSnapshotDelegates(t *testing.T) {
	a := &pulse{name: "a", period: 3, cycle: 77, hash: 0xbeef}
	z := &pulse{name: "z", period: 5, cycle: 77, hash: 0xcafe}
	m := NewMultiplex("mux", a, z)

	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshot.Header{})
	if err != nil {
		t.Fatal(err)
	}
	w.Section("state")
	if err := m.Save(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	a2 := &pulse{name: "a", period: 3}
	z2 := &pulse{name: "z", period: 5}
	m2 := NewMultiplex("mux", a2, z2)
	rd, _, err := snapshot.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(rd); err != nil {
		t.Fatal(err)
	}
	if a2.cycle != 77 || a2.hash != 0xbeef || z2.hash != 0xcafe {
		t.Errorf("children not restored: a2=%+v z2=%+v", a2, z2)
	}

	// A non-snapshottable child must be refused, not skipped.
	bad := NewMultiplex("bad", NewSink("sink"))
	var buf2 bytes.Buffer
	w2, err := snapshot.NewWriter(&buf2, snapshot.Header{})
	if err != nil {
		t.Fatal(err)
	}
	w2.Section("state")
	if err := bad.Save(w2); err == nil {
		t.Error("Save with non-snapshottable child did not error")
	}
}
