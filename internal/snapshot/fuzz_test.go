package snapshot

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes through the full read path: header,
// section iteration, and every primitive decoder against each section
// payload. The invariant is simply "never panic, never allocate
// unboundedly" — errors are the expected outcome for garbage input.
func FuzzReader(f *testing.F) {
	// Seed with a well-formed snapshot so the fuzzer starts from valid
	// structure and mutates toward interesting corruptions.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{TopologyHash: 0xabc, Cycle: 512, Step: 8})
	if err != nil {
		f.Fatal(err)
	}
	w.Section("runner")
	w.Begin("fame.Runner", 1)
	w.U64(512)
	w.Uvarint(3)
	w.Section("node/s0")
	w.Begin("softstack.Node", 1)
	w.Bytes([]byte{1, 2, 3, 4})
	w.String("server0")
	w.Bool(true)
	w.F64(2.5)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, _, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1024; i++ {
			_, err := r.Next()
			if err == io.EOF || err != nil {
				break
			}
			// Exercise every decoder against the payload; all must
			// bounds-check and latch errors rather than panic.
			_ = r.U64()
			_ = r.F64()
			_ = r.Bool()
			_ = r.Uvarint()
			_ = r.Count(1 << 20)
			_ = r.Bytes(1 << 20)
			_ = r.String(1 << 20)
			_ = r.Begin("anything", 1)
			_ = r.Remaining()
		}
		_, _, _ = Inspect(bytes.NewReader(data))
	})
}
