package switchmodel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/snapshot"
	"repro/internal/snapshot/snaptest"
	"repro/internal/token"
)

func TestSwitchSnapshotConformance(t *testing.T) {
	mk := func() *Switch {
		sw := New(Config{Name: "tor", Ports: 4, SwitchingLatency: 10})
		sw.MACTable().Set(ethernet.MAC(0x2222), 2)
		return sw
	}
	sw := mk()
	flits := mkFrameFlits(t, 0x2222, 0x1111, 40)
	// Two complete packets for egress port 2, one in flight and one still
	// queued behind it, plus a third packet cut off mid-assembly, so the
	// in-flight transmission, an egress queue and a partial ingress all
	// carry state. (The pending queue is always empty between rounds and
	// is not checkpointed.)
	tick(sw, 16, map[int]*token.Batch{0: packetBatch(16, 2, flits), 3: packetBatch(16, 2, flits)})
	half := token.NewBatch(8)
	for i := 0; i < 4; i++ {
		half.Put(i, token.Token{Data: flits[i], Valid: true})
	}
	tick(sw, 8, map[int]*token.Batch{1: half})
	if o := &sw.out[2]; o.tx == nil || o.queue.len() != 1 {
		t.Fatalf("egress port 2: in flight %v, queued %d; want one of each", o.tx != nil, o.queue.len())
	}
	snaptest.RoundTrip(t, sw, func() snapshot.Snapshotter { return mk() })
}

func TestSwitchRestoreRejectsPortMismatch(t *testing.T) {
	sw := New(Config{Name: "tor", Ports: 4})
	data := snaptest.Save(t, sw)
	other := New(Config{Name: "tor", Ports: 2})
	err := restoreErr(other, data)
	if err == nil || !strings.Contains(err.Error(), "ports") {
		t.Fatalf("restore into 2-port switch from 4-port checkpoint: err = %v", err)
	}
}

// TestSwitchRestoreRefusesVersion1 hand-writes an idle 2-port switch in
// the version-1 layout (a sequence counter and a pending-queue section,
// both gone since version 2) and checks Restore refuses it by version,
// naming the component, instead of misreading it.
func TestSwitchRestoreRefusesVersion1(t *testing.T) {
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshot.Header{Step: 8})
	if err != nil {
		t.Fatal(err)
	}
	w.Section("switch/tor")
	w.Begin("switchmodel.Switch", 1)
	w.Uvarint(2) // ports
	w.U64(64)    // cycle
	w.U64(3)     // packet sequence counter
	w.Uvarint(0) // ingress port 0: no partial packet
	w.Uvarint(0) // ingress port 1: no partial packet
	w.Uvarint(0) // pending queue: empty
	for p := 0; p < 2; p++ {
		w.Uvarint(0)  // egress queue: empty
		w.Bool(false) // nothing in flight
	}
	for i := 0; i < numStatFields; i++ {
		w.U64(0)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	err = restoreErr(New(Config{Name: "tor", Ports: 2}), buf.Bytes())
	if !errors.Is(err, snapshot.ErrVersion) || !strings.Contains(err.Error(), "switchmodel.Switch") {
		t.Fatalf("restore of a version-1 switch section: err = %v, want ErrVersion naming switchmodel.Switch", err)
	}
}

// restoreErr mirrors snaptest's framing for error-path assertions.
func restoreErr(dst snapshot.Snapshotter, stream []byte) error {
	r, _, err := snapshot.NewReader(bytes.NewReader(stream))
	if err != nil {
		return err
	}
	if _, err := r.Next(); err != nil {
		return err
	}
	return dst.Restore(r)
}
