package snapshot

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func mustWriter(t *testing.T, buf *bytes.Buffer, h Header) *Writer {
	t.Helper()
	w, err := NewWriter(buf, h)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return w
}

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := Header{TopologyHash: 0xdeadbeefcafe, Cycle: 12345, Step: 64}
	w := mustWriter(t, &buf, h)
	w.Section("a")
	w.U64(7)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, got, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if got != h {
		t.Fatalf("header mismatch: got %+v want %+v", got, h)
	}
	name, err := r.Next()
	if err != nil || name != "a" {
		t.Fatalf("Next = %q, %v", name, err)
	}
	if v := r.U64(); v != 7 {
		t.Fatalf("U64 = %d, want 7", v)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF at trailer, got %v", err)
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.Section("prims")
	w.U64(^uint64(0))
	w.F64(3.5)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(1 << 40)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.Begin("comp", 9)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, _, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if v := r.U64(); v != ^uint64(0) {
		t.Errorf("U64 = %x", v)
	}
	if v := r.F64(); v != 3.5 {
		t.Errorf("F64 = %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool sequence wrong")
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Bytes(16); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.String(16); v != "hello" {
		t.Errorf("String = %q", v)
	}
	if err := r.Begin("comp", 9); err != nil {
		t.Errorf("Begin: %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
	if err := r.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
}

func TestMultipleSections(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	for _, name := range []string{"one", "two", "three"} {
		w.Section(name)
		w.String(name)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for {
		name, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := r.String(64); got != name {
			t.Errorf("section %q payload %q", name, got)
		}
		names = append(names, name)
	}
	if strings.Join(names, ",") != "one,two,three" {
		t.Errorf("sections = %v", names)
	}
}

func TestNextSkipsUnreadPayload(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.Section("big")
	for i := 0; i < 100; i++ {
		w.U64(uint64(i))
	}
	w.Section("after")
	w.U64(99)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	// Read only part of "big", then advance.
	_ = r.U64()
	name, err := r.Next()
	if err != nil || name != "after" {
		t.Fatalf("Next = %q, %v", name, err)
	}
	if v := r.U64(); v != 99 {
		t.Errorf("after payload = %d", v)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.Section("a")
	w.U64(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Errorf("bad magic: err = %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[4] = 0xFF
	if _, _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: err = %v", err)
	}
}

func TestTruncationAlwaysErrors(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{TopologyHash: 1, Cycle: 2, Step: 3})
	w.Section("alpha")
	w.U64(1)
	w.Bytes(bytes.Repeat([]byte{0xAB}, 100))
	w.Section("beta")
	w.String("tail")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if err := consume(full[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes did not error", n, len(full))
		}
	}
	if err := consume(full); err != nil {
		t.Fatalf("full stream errored: %v", err)
	}
}

// consume reads an entire stream the way a restore would, returning the
// first error (nil for a clean stream).
func consume(p []byte) error {
	r, _, err := NewReader(bytes.NewReader(p))
	if err != nil {
		return err
	}
	for {
		_, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for r.Remaining() > 0 {
			_ = r.take(1)
		}
		if err := r.Err(); err != nil {
			return err
		}
	}
}

func TestPayloadCorruptionCaughtByCRC(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.Section("sec")
	w.Bytes(bytes.Repeat([]byte{0x5C}, 64))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip a bit in the middle of the payload (well past header+framing).
	bad := append([]byte(nil), full...)
	bad[len(bad)-20] ^= 0x01
	err := consume(bad)
	if err == nil {
		t.Fatal("corrupted payload accepted")
	}
	if !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
}

func TestReaderBoundsChecks(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.Section("s")
	w.U64(5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_ = r.U64()
	// Section exhausted: every primitive must latch an error, not panic.
	if v := r.U64(); v != 0 {
		t.Errorf("U64 past end = %d", v)
	}
	if r.Err() == nil {
		t.Error("no error latched after overread")
	}
	// Sticky error: further reads stay zero.
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint after error = %d", v)
	}
}

func TestCountLimit(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.Section("s")
	w.Uvarint(1000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if n := r.Count(10); n != 0 {
		t.Errorf("Count over limit = %d", n)
	}
	if r.Err() == nil {
		t.Error("Count over limit did not latch error")
	}
}

func TestBeginMismatch(t *testing.T) {
	build := func(name string, ver uint64) []byte {
		var buf bytes.Buffer
		w := mustWriter(t, &buf, Header{})
		w.Section("s")
		w.Begin(name, ver)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	read := func(p []byte, name string, ver uint64) error {
		r, _, err := NewReader(bytes.NewReader(p))
		if err != nil {
			return err
		}
		if _, err := r.Next(); err != nil {
			return err
		}
		return r.Begin(name, ver)
	}
	if err := read(build("cpu", 1), "cpu", 1); err != nil {
		t.Errorf("matching Begin: %v", err)
	}
	if err := read(build("cpu", 1), "dram", 1); !errors.Is(err, ErrFormat) {
		t.Errorf("name mismatch: %v", err)
	}
	if err := read(build("cpu", 2), "cpu", 1); !errors.Is(err, ErrVersion) {
		t.Errorf("version mismatch: %v", err)
	}
}

func TestWriterPrimitiveOutsideSection(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.U64(1)
	if w.Err() == nil {
		t.Error("write outside section did not error")
	}
	if err := w.Close(); err == nil {
		t.Error("Close did not report latched error")
	}
}

func TestInspect(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{TopologyHash: 0x77, Cycle: 100, Step: 4})
	w.Section("runner")
	w.U64(1)
	w.U64(2)
	w.Section("node/s0")
	w.Bytes(make([]byte, 32))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	h, infos, err := Inspect(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if h.TopologyHash != 0x77 || h.Cycle != 100 || h.Step != 4 {
		t.Errorf("header = %+v", h)
	}
	if len(infos) != 2 || infos[0].Name != "runner" || infos[1].Name != "node/s0" {
		t.Errorf("infos = %+v", infos)
	}
	if infos[0].Bytes != 16 {
		t.Errorf("runner section bytes = %d, want 16", infos[0].Bytes)
	}
	// Truncated stream must fail Inspect.
	if _, _, err := Inspect(bytes.NewReader(buf.Bytes()[:buf.Len()-1])); err == nil {
		t.Error("Inspect accepted truncated stream")
	}
}

func TestEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	h, infos, err := Inspect(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Inspect empty: %v", err)
	}
	if h != (Header{}) || len(infos) != 0 {
		t.Errorf("h=%+v infos=%v", h, infos)
	}
}
