package softstack

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/snapshot"
	"repro/internal/snapshot/snaptest"
	"repro/internal/token"
)

func tickNode(n *Node, cycles int) {
	const step = 64
	in := []*token.Batch{token.NewBatch(step)}
	out := []*token.Batch{token.NewBatch(step)}
	for c := 0; c < cycles; c += step {
		out[0].Reset(step)
		n.TickBatch(step, in, out)
	}
}

func TestNodeSnapshotConformance(t *testing.T) {
	mk := func() *Node {
		return NewNode(Config{Name: "n0", MAC: 0x11, IP: 0x0a000001, Cores: 2, Seed: 7,
			StaticARP: map[ethernet.IP]ethernet.MAC{0x0a000002: 0x22}})
	}
	n := mk()
	// A raw stream is pure data-plane state: the generator, TX queue and
	// counters populate without scheduling any kernel events, so the node
	// stays quiescent and checkpointable mid-stream.
	n.StartRawStream(10, 0x22, 200, 1.0, 100_000)
	tickNode(n, 512)
	if err := n.Quiescent(); err != nil {
		t.Fatalf("raw stream broke quiescence: %v", err)
	}
	snaptest.RoundTrip(t, n, func() snapshot.Snapshotter { return mk() })
}

func TestNodeSaveRefusesPendingEvents(t *testing.T) {
	a := NewNode(Config{Name: "a", MAC: 1, IP: 1, Cores: 1})
	a.Ping(5, 2, 1, 100, nil)
	tickNode(a, 64)
	err := snapshotErr(a)
	if err == nil || !strings.Contains(err.Error(), "a") {
		t.Fatalf("Save with ping in flight: err = %v", err)
	}
}

func TestNodeRestoreRejectsCoreMismatch(t *testing.T) {
	n := NewNode(Config{Name: "n", MAC: 1, IP: 1, Cores: 2})
	data := snaptest.Save(t, n)
	other := NewNode(Config{Name: "n", MAC: 1, IP: 1, Cores: 4})
	r, _, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	err = other.Restore(r)
	if err == nil || !strings.Contains(err.Error(), "cores") {
		t.Fatalf("restore into 4-core node from 2-core checkpoint: err = %v", err)
	}
}

func snapshotErr(n *Node) error {
	var sink discard
	w, err := snapshot.NewWriter(&sink, snapshot.Header{Step: 8})
	if err != nil {
		return err
	}
	w.Section("state")
	return n.Save(w)
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestRestoreHostileCountAllocatesLittle: a short section whose TX-queue
// or ARP count claims 2^24-1 elements must fail before anything is
// allocated for them — every element takes at least one byte, so the
// count can be refused against the bytes left in the section.
func TestRestoreHostileCountAllocatesLittle(t *testing.T) {
	for _, tc := range []struct {
		name string
		// counts are the ARP, RX-flit and TX-queue counts to write; the
		// last one is hostile and the stream ends a few bytes after it.
		counts []uint64
	}{
		{"txq", []uint64{0, 0, 1<<24 - 1}},
		{"arp", []uint64{1<<24 - 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := snapshot.NewWriter(&buf, snapshot.Header{Step: 8})
			if err != nil {
				t.Fatal(err)
			}
			w.Section("state")
			w.Begin("softstack.Node", 1)
			for i := 0; i < 7; i++ { // cycle, eventSeq, five counters
				w.U64(0)
			}
			for _, c := range tc.counts {
				w.Uvarint(c)
			}
			w.Bytes(make([]byte, 40))
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			n := NewNode(Config{Name: "n", MAC: 1, IP: 1, Cores: 1})
			r, _, err := snapshot.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = n.Restore(r)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("restore of a hostile count succeeded")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("restore allocated %d bytes before failing (%v)", grew, err)
			}
		})
	}
}
