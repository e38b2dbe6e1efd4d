package snapshot

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// record is a field list covering every State helper.
type record struct {
	word   uint32
	signed int64
	small  uint16
	flag   bool
	ratio  float64
	blob   []byte
	name   string
	list   []uint64
	table  map[uint32][]byte
	opt    *uint64
	fixed  [2]uint64
}

func (c *record) state(s *State) error {
	s.Begin("record", 1)
	Fixed(s, &c.word)
	Fixed(s, &c.signed)
	Uvarint(s, &c.small)
	s.Bool(&c.flag)
	s.F64(&c.ratio)
	s.Bytes(&c.blob, 16)
	s.String(&c.name, 16)
	Slice(s, &c.list, 8, s.U64)
	Map(s, &c.table, 8, func(v []byte) bool { return len(v) > 0 }, func(k *uint32, v *[]byte) {
		Uvarint(s, k)
		s.Bytes(v, 4)
	})
	Ptr(s, &c.opt, s.U64)
	s.Shape("words", len(c.fixed))
	for i := range c.fixed {
		s.U64(&c.fixed[i])
	}
	s.Check(c.fixed[0] <= c.fixed[1], "fixed words out of order")
	return s.Err()
}

func (c *record) Save(w *Writer) error    { return c.state(Encode(w)) }
func (c *record) Restore(r *Reader) error { return c.state(Decode(r)) }

// stateStream saves c into a one-section stream.
func stateStream(t *testing.T, c Snapshotter) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.Section("s")
	if err := c.Save(w); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// restoreStream decodes the first section of stream into c.
func restoreStream(t *testing.T, c Snapshotter, stream []byte) error {
	t.Helper()
	r, _, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	return c.Restore(r)
}

func TestStateRoundTrip(t *testing.T) {
	one := uint64(9)
	src := &record{
		word: 0xfeedbeef, signed: -42, small: 65535, flag: true, ratio: 2.5,
		blob: []byte{1, 2}, name: "x", list: []uint64{3, 4, 5},
		table: map[uint32][]byte{7: {1}, 2: {2, 2}, 5: nil},
		opt:   &one, fixed: [2]uint64{1, 2},
	}
	stream := stateStream(t, src)
	// The destination starts populated, so every field must be replaced.
	dst := &record{list: []uint64{1}, table: map[uint32][]byte{9: {9}}, blob: []byte{7}}
	if err := restoreStream(t, dst, stream); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := stateStream(t, dst); !bytes.Equal(got, stream) {
		t.Fatal("restored record re-saves to different bytes")
	}
	if len(dst.table) != 2 || dst.table[5] != nil || *dst.opt != 9 || dst.signed != -42 {
		t.Fatalf("restored record = %+v", dst)
	}
	if err := restoreStream(t, dst, stateStream(t, &record{})); err != nil || dst.opt != nil || len(dst.list) != 0 {
		t.Fatalf("restore of an empty record: err %v, opt %v, list %v", err, dst.opt, dst.list)
	}
}

func TestStateCheckRunsBothWays(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.Section("s")
	bad := &record{fixed: [2]uint64{2, 1}}
	if err := bad.Save(w); err == nil || !strings.Contains(err.Error(), "out of order") || !strings.Contains(err.Error(), `"s"`) {
		t.Fatalf("Save of invalid state: err = %v", err)
	}
}

// TestStateCountRefusesMoreThanLeft: a count larger than max, or than the
// bytes left in the section, is refused before the caller allocates.
func TestStateCountRefusesMoreThanLeft(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.Section("s")
	w.Uvarint(6)
	w.Bytes([]byte{0, 0, 0}) // with the count below, 5 bytes follow the first count
	w.Uvarint(3)
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
	var n int
	s := Decode(r)
	s.Count(&n, 1<<20)
	if err := s.Err(); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "bytes left") {
		t.Fatalf("count above the bytes left: err = %v", err)
	}

	r, _, _ = NewReader(bytes.NewReader(buf.Bytes()))
	r.Next()
	s = Decode(r)
	s.Count(&n, 4)
	if err := s.Err(); !errors.Is(err, ErrFormat) {
		t.Fatalf("count above max: err = %v", err)
	}
	r, _, _ = NewReader(bytes.NewReader(buf.Bytes()))
	r.Next()
	r.Uvarint()
	r.Bytes(4)
	s = Decode(r)
	var list []uint64
	Slice(s, &list, 8, s.U64)
	if err := s.Err(); !errors.Is(err, ErrFormat) || list != nil {
		t.Fatalf("slice count of 3 with 0 bytes left: err = %v, list %v", err, list)
	}
}

func TestStateDecodeRefusesOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	w := mustWriter(t, &buf, Header{})
	w.Section("s")
	w.U64(1 << 40) // too wide for a uint32
	w.Uvarint(1 << 17)
	w.Uvarint(2) // map of two entries with equal keys
	w.Uvarint(4)
	w.Bytes(nil)
	w.Uvarint(4)
	w.Bytes(nil)
	w.Uvarint(3) // shape
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		skip int
		run  func(s *State)
	}{
		{"Fixed", 0, func(s *State) { var v uint32; Fixed(s, &v) }},
		{"Uvarint", 1, func(s *State) { var v uint16; Uvarint(s, &v) }},
		{"Map", 2, func(s *State) {
			var m map[uint64][]byte
			Map(s, &m, 8, nil, func(k *uint64, v *[]byte) { Uvarint(s, k); s.Bytes(v, 1) })
		}},
		{"Shape", 3, func(s *State) { s.Shape("ports", 4) }},
	} {
		r, _, _ := NewReader(bytes.NewReader(buf.Bytes()))
		r.Next()
		skips := []func(){func() { r.U64() }, func() { r.Uvarint() }, func() {
			r.Uvarint()
			for i := 0; i < 2; i++ {
				r.Uvarint()
				r.Bytes(1)
			}
		}}
		for _, f := range skips[:tc.skip] {
			f()
		}
		s := Decode(r)
		tc.run(s)
		if s.Err() == nil {
			t.Errorf("%s: out-of-range value decoded without error", tc.name)
		}
	}
}
