package manager

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// payloadSection is one framed section of a checkpoint stream.
type payloadSection struct {
	name    string
	payload []byte
}

// splitSections cuts a well-formed checkpoint stream into its 32-byte
// header and its sections (see the layout in package snapshot).
func splitSections(t testing.TB, stream []byte) ([]byte, []payloadSection) {
	hdr, rest := stream[:32], stream[32:]
	var secs []payloadSection
	for len(rest) > 0 && rest[0] == 0xA5 {
		rest = rest[1:]
		nameLen, n := binary.Uvarint(rest)
		rest = rest[n:]
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		plen, n := binary.Uvarint(rest)
		rest = rest[n:]
		secs = append(secs, payloadSection{name, rest[:plen]})
		rest = rest[plen+4:] // payload and CRC
	}
	if len(rest) != 1 || rest[0] != 0x5A {
		t.Fatalf("checkpoint stream does not end in its trailer")
	}
	return hdr, secs
}

// frameSections writes hdr and secs back into a stream with valid
// markers, lengths and CRCs, whatever the payloads hold.
func frameSections(hdr []byte, secs []payloadSection) []byte {
	out := append([]byte(nil), hdr...)
	for _, s := range secs {
		out = append(out, 0xA5)
		out = binary.AppendUvarint(out, uint64(len(s.name)))
		out = append(out, s.name...)
		out = binary.AppendUvarint(out, uint64(len(s.payload)))
		out = append(out, s.payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.payload))
	}
	return append(out, 0x5A)
}

// FuzzRestorePayload hands component decoders corrupt payloads behind
// valid framing. A bit flip in a whole stream almost always trips a CRC,
// so the decoders behind it rarely see damage; here the fuzzer replaces
// one section's payload of a streaming 4-node rack's checkpoint and the
// stream is re-framed with valid CRCs. Restoring it into a fresh
// deployment must return — an error or success — and never panic.
func FuzzRestorePayload(f *testing.F) {
	spec, err := RackSpec(4, DeployConfig{LinkLatency: 512, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	spec.Workload = &WorkloadSpec{Kind: "stream", StartAt: 600, FrameBytes: 200, Gbps: 100}
	deploy := func(t testing.TB) *Cluster {
		root, cfg, err := spec.Topology()
		if err != nil {
			t.Fatal(err)
		}
		c, err := Deploy(root, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := deploy(f)
	if err := spec.Workload.Apply(c.ids); err != nil {
		f.Fatal(err)
	}
	if err := c.RunFor(20 * c.Runner.Step()); err != nil {
		f.Fatal(err)
	}
	var ck bytes.Buffer
	if err := c.Checkpoint(&ck); err != nil {
		f.Fatal(err)
	}
	hdr, secs := splitSections(f, ck.Bytes())
	if err := deploy(f).RestoreState(bytes.NewReader(frameSections(hdr, secs))); err != nil {
		f.Fatalf("re-framed checkpoint does not restore: %v", err)
	}
	for i, s := range secs {
		f.Add(uint8(i), s.payload)
	}

	f.Fuzz(func(t *testing.T, idx uint8, payload []byte) {
		mut := append([]payloadSection(nil), secs...)
		mut[int(idx)%len(mut)].payload = payload
		_ = deploy(t).RestoreState(bytes.NewReader(frameSections(hdr, mut)))
	})
}
