package manager

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/clock"
	"repro/internal/softstack"
)

// controlSeed frames one message and returns the raw bytes.
func controlSeed(t byte, msg any) []byte {
	var buf bytes.Buffer
	if err := WriteControl(&buf, t, msg); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzControlRead mirrors transport's FuzzReadBatch for the shard
// control protocol: whatever bytes arrive on the control connection —
// malformed lengths, bad versions, truncated payloads, corrupt JSON —
// ReadControl and the message decoders must return structured errors,
// never panic, and never allocate beyond the frame bound.
func FuzzControlRead(f *testing.F) {
	spec := ClusterSpec{
		Root: NodeSpec{Switch: "root", Downlinks: []NodeSpec{
			{Server: "server0", Blade: "QuadCore"},
			{Server: "server1", Blade: "QuadCore"},
		}},
		LinkLatency:      512,
		SwitchingLatency: 10,
	}
	seeds := [][]byte{
		controlSeed(msgHello, HelloMsg{Name: "shard0", PID: 1234, Proto: 1}),
		controlSeed(msgAssign, AssignMsg{
			Epoch:     3,
			Spec:      spec,
			Units:     []UnitAssign{{Unit: 0, StoreDir: "/tmp/sub0"}},
			TokenAddr: "127.0.0.1:9000",
			Restore:   true, RestoreCycle: 2048,
		}),
		controlSeed(msgRunTo, RunToMsg{Target: 8192, Final: true}),
		controlSeed(msgCheckpoint, nil),
		controlSeed(msgProgress, ProgressMsg{Cycle: 77}),
		controlSeed(msgDone, DoneMsg{Cycle: 8192, Hashes: map[string]uint64{"node/server0": 1}}),
		controlSeed(msgError, ErrorMsg{Msg: "bridge died", Cycle: 99}),
	}
	for _, s := range seeds {
		f.Add(s)
		// Truncations at every prefix of a representative frame sweep the
		// header / payload / crc boundary classes.
		if len(s) < 64 {
			for cut := 0; cut < len(s); cut++ {
				f.Add(s[:cut])
			}
		}
	}
	// Targeted malformations.
	badWorkload := spec
	badWorkload.Workload = &WorkloadSpec{Kind: "stream", FrameBytes: 5, Gbps: 1}
	f.Add(controlSeed(msgAssign, AssignMsg{Epoch: 1, Spec: badWorkload, Units: []UnitAssign{{Unit: 0}}}))
	badMagic := append([]byte(nil), seeds[0]...)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	badVer := append([]byte(nil), seeds[0]...)
	binary.BigEndian.PutUint16(badVer[4:6], 0x7fff)
	f.Add(badVer)
	hugeLen := append([]byte(nil), seeds[0]...)
	binary.BigEndian.PutUint32(hugeLen[8:12], 0xffff_ffff)
	f.Add(hugeLen)
	badCRC := append([]byte(nil), seeds[2]...)
	badCRC[len(badCRC)-1] ^= 0x01
	f.Add(badCRC)
	badType := append([]byte(nil), seeds[3]...)
	badType[6] = 0xee
	f.Add(badType)

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadControl(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A frame that passed framing checks must also survive message
		// decoding without panicking, whatever its payload claims to be.
		switch typ {
		case msgHello:
			var m HelloMsg
			_ = decodeControl(typ, payload, &m)
		case msgAssign:
			var m AssignMsg
			if decodeControl(typ, payload, &m) == nil {
				// A structurally valid assign may still carry a hostile
				// spec; Topology() must bound and reject, not panic, and
				// a workload it accepts must install on a node.
				if _, _, err := m.Spec.Topology(); err == nil && m.Spec.Workload != nil {
					w := m.Spec.Workload
					n := softstack.NewNode(softstack.Config{Name: "fuzz"})
					n.StartRawStream(clock.Cycles(w.StartAt), 0, w.FrameBytes, w.Gbps, clock.Cycles(w.StopAt))
				}
			}
		case msgRunTo:
			var m RunToMsg
			_ = decodeControl(typ, payload, &m)
		case msgProgress:
			var m ProgressMsg
			_ = decodeControl(typ, payload, &m)
		case msgDone:
			var m DoneMsg
			_ = decodeControl(typ, payload, &m)
		case msgError:
			var m ErrorMsg
			_ = decodeControl(typ, payload, &m)
		}
		// Valid frames round-trip: re-encoding the raw payload under the
		// same type must produce bytes ReadControl accepts identically.
		var buf bytes.Buffer
		if err := WriteControl(&buf, typ, nil); err != nil {
			t.Fatalf("re-encode empty: %v", err)
		}
		typ2, payload2, err := ReadControl(bytes.NewReader(append(frameWithPayload(typ, payload), buf.Bytes()...)))
		if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip: typ %d->%d err %v", typ, typ2, err)
		}
	})
}

// frameWithPayload re-frames a raw payload (bypassing JSON encoding).
func frameWithPayload(typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	// WriteControl JSON-encodes; frame manually for raw payloads.
	hdr := make([]byte, 12)
	binary.BigEndian.PutUint32(hdr[0:4], 0x4653_4350)
	binary.BigEndian.PutUint16(hdr[4:6], 1)
	hdr[6] = typ
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	buf.Write(hdr)
	buf.Write(payload)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	buf.Write(crc[:])
	return buf.Bytes()
}
