// Package snapshot defines the versioned, self-describing binary
// checkpoint format used to save and restore whole-cluster simulations.
//
// Determinism is the point: the simulation guarantees that Run and
// RunParallel produce bit-identical token streams, so a checkpoint taken
// at target cycle N and restored later must replay the exact same future.
// The format is built to make violations loud — a restored cluster that
// re-saves to different bytes, or a stream that fails a CRC, is a bug,
// not a tolerance.
//
// Layout (all fixed-width integers little-endian):
//
//	magic     "FSNP"
//	version   u16       format version (currently 1)
//	reserved  u16
//	topoHash  u64       structural identity of the deployed topology
//	cycle     u64       target cycle the checkpoint was taken at
//	step      u64       runner batch step in cycles
//	section*            any number of sections
//	trailer   0x5A      end-of-snapshot marker (truncation detector)
//
// Each section:
//
//	0xA5      section marker
//	name      uvarint length + bytes (component identity, e.g. "node/s0")
//	length    uvarint payload bytes
//	payload   [length]byte
//	crc       u32 IEEE CRC-32 of payload
//
// Within a payload, each component lists its fields once, in a state
// method that takes a State. Save runs that list through Encode (a State
// over the Writer) and Restore runs the same list through Decode (a State
// over the Reader), so the two directions cannot disagree on a field, its
// encoding or its order. Writer and Reader each keep a sticky error: the
// first failure latches and every later call is a cheap no-op, so a field
// list runs straight-line and checks the error once. The Reader never panics
// on malformed input — every length is capped and every access
// bounds-checked — which is what the FuzzReader fuzz target enforces.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies a snapshot stream.
const Magic = "FSNP"

// Version is the current format version.
const Version = 1

const (
	sectionMarker byte = 0xA5
	trailerMarker byte = 0x5A

	// maxNameLen bounds section and component-mark names.
	maxNameLen = 256
	// maxSectionBytes bounds one section payload (a full blade with a
	// dirty memory image fits comfortably; a corrupted length field does
	// not get to allocate unbounded memory because payloads are read
	// incrementally).
	maxSectionBytes = 1 << 30
)

// ErrFormat tags malformed-stream errors (wrong magic, bad marker,
// truncation, CRC mismatch). errors.Is(err, ErrFormat) matches them all.
var ErrFormat = errors.New("snapshot: malformed stream")

// ErrVersion tags version mismatches.
var ErrVersion = errors.New("snapshot: unsupported version")

// Header carries the stream-level identity of a checkpoint.
type Header struct {
	// TopologyHash is manager.TopologyHash of the deployed topology; a
	// restore into a differently-shaped cluster is refused up front.
	TopologyHash uint64
	// Cycle is the target cycle the checkpoint was taken at.
	Cycle uint64
	// Step is the runner batch step in cycles.
	Step uint64
}

// Snapshotter is implemented by every stateful simulation layer: the CPU
// register file, caches, DRAM, the NIC, switch models, modeled-OS nodes
// and the token runner itself. Each implementation runs one field list
// (see State) in both directions.
//
// Save must be read-only (checkpointing a live simulation must not
// perturb it) and deterministic: saving the same state twice yields
// identical bytes (maps are serialised in sorted key order).
//
// Restore must validate what it reads and return an error — never panic —
// on malformed or mismatched input. It overwrites fields in place as it
// decodes them: after an error the target is partly overwritten and must
// be discarded, never run or saved.
type Snapshotter interface {
	Save(w *Writer) error
	Restore(r *Reader) error
}

// --- Writer ---

// Writer serialises a snapshot stream. Create with NewWriter, open a
// section per component with Section, Save the component into it, and
// Close. Primitive methods latch the first error; check Err (or the error
// from Close) once at the end.
type Writer struct {
	dst      io.Writer
	buf      *bytes.Buffer // current section payload, from sectionBufs
	name     string
	open     bool
	closed   bool
	err      error
	sections int
}

// NewWriter writes the stream header and returns a Writer.
func NewWriter(dst io.Writer, h Header) (*Writer, error) {
	w := &Writer{dst: dst}
	var hdr [4 + 2 + 2 + 8 + 8 + 8]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], h.TopologyHash)
	binary.LittleEndian.PutUint64(hdr[16:24], h.Cycle)
	binary.LittleEndian.PutUint64(hdr[24:32], h.Step)
	if _, err := dst.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: write header: %w", err)
	}
	select {
	case w.buf = <-sectionBufs:
	default:
		w.buf = new(bytes.Buffer)
	}
	return w, nil
}

// sectionBufs holds the section buffers of closed Writers, so a process
// that checkpoints repeatedly grows one to its largest section once
// instead of from empty on every checkpoint. It keeps a few rather than
// one so Writers open at once on different goroutines each find one; a
// small cap bounds the memory it pins.
var sectionBufs = make(chan *bytes.Buffer, 4)

// Err returns the first error latched by a primitive write.
func (w *Writer) Err() error { return w.err }

func (w *Writer) setErr(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Section flushes the previous section (if any) and starts a new one.
func (w *Writer) Section(name string) {
	if w.err != nil {
		return
	}
	if w.closed {
		w.setErr(errors.New("snapshot: section after Close"))
		return
	}
	if len(name) == 0 || len(name) > maxNameLen {
		w.setErr(fmt.Errorf("snapshot: section name %q out of range", name))
		return
	}
	w.flushSection()
	w.name = name
	w.open = true
}

func (w *Writer) flushSection() {
	if !w.open || w.err != nil {
		return
	}
	payload := w.buf.Bytes()
	var scratch []byte
	scratch = append(scratch, sectionMarker)
	scratch = binary.AppendUvarint(scratch, uint64(len(w.name)))
	scratch = append(scratch, w.name...)
	scratch = binary.AppendUvarint(scratch, uint64(len(payload)))
	if _, err := w.dst.Write(scratch); err != nil {
		w.setErr(fmt.Errorf("snapshot: write section %q: %w", w.name, err))
		return
	}
	if _, err := w.dst.Write(payload); err != nil {
		w.setErr(fmt.Errorf("snapshot: write section %q: %w", w.name, err))
		return
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.dst.Write(crc[:]); err != nil {
		w.setErr(fmt.Errorf("snapshot: write section %q: %w", w.name, err))
		return
	}
	w.buf.Reset()
	w.open = false
	w.sections++
}

// Close flushes the final section, writes the end-of-snapshot trailer and
// hands the section buffer on to the next Writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.flushSection()
	if w.err == nil {
		if _, err := w.dst.Write([]byte{trailerMarker}); err != nil {
			w.setErr(fmt.Errorf("snapshot: write trailer: %w", err))
		}
	}
	w.closed = true
	w.buf.Reset()
	select {
	case sectionBufs <- w.buf:
	default:
	}
	w.buf = nil
	return w.err
}

func (w *Writer) need() bool {
	if w.err != nil {
		return false
	}
	if !w.open {
		w.setErr(errors.New("snapshot: primitive write outside a section"))
		return false
	}
	return true
}

// U64 writes a fixed-width 64-bit value.
func (w *Writer) U64(v uint64) {
	if !w.need() {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}

// F64 writes a float64 bit-exactly.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if !w.need() {
		return
	}
	b := byte(0)
	if v {
		b = 1
	}
	w.buf.WriteByte(b)
}

// Uvarint writes a variable-length unsigned value (counts, small fields).
func (w *Writer) Uvarint(v uint64) {
	if !w.need() {
		return
	}
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	w.buf.Write(b[:n])
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	if w.err == nil && w.open {
		w.buf.Write(p)
	}
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	if w.err == nil && w.open {
		w.buf.WriteString(s)
	}
}

// Begin marks a component boundary inside a section: a name plus a
// per-component schema version. Reader.Begin verifies both, which turns
// misaligned or stale streams into descriptive errors instead of silently
// misread state.
func (w *Writer) Begin(name string, version uint64) {
	w.String(name)
	w.Uvarint(version)
}

// --- Reader ---

// Reader deserialises a snapshot stream section by section. Next advances
// to the following section; primitives consume the current section's
// payload. Like Writer, the first failure latches: primitives return zero
// values afterwards and Err reports the cause.
type Reader struct {
	src     io.Reader
	payload []byte
	pos     int
	name    string
	err     error
	done    bool
}

// NewReader validates the stream header and returns a Reader positioned
// before the first section.
func NewReader(src io.Reader) (*Reader, Header, error) {
	var hdr [32]byte
	if _, err := io.ReadFull(src, hdr[:]); err != nil {
		return nil, Header{}, fmt.Errorf("%w: short header: %v", ErrFormat, err)
	}
	if string(hdr[0:4]) != Magic {
		return nil, Header{}, fmt.Errorf("%w: bad magic %q", ErrFormat, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return nil, Header{}, fmt.Errorf("%w: stream version %d, this build reads %d", ErrVersion, v, Version)
	}
	h := Header{
		TopologyHash: binary.LittleEndian.Uint64(hdr[8:16]),
		Cycle:        binary.LittleEndian.Uint64(hdr[16:24]),
		Step:         binary.LittleEndian.Uint64(hdr[24:32]),
	}
	return &Reader{src: src}, h, nil
}

// Err returns the first error latched by a primitive read.
func (r *Reader) Err() error { return r.err }

func (r *Reader) setErr(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Next advances to the next section and returns its name. It returns
// io.EOF at the end-of-snapshot trailer; a stream that ends without the
// trailer is reported as truncated. Any unread remainder of the previous
// section is discarded.
func (r *Reader) Next() (string, error) {
	if r.err != nil {
		return "", r.err
	}
	if r.done {
		return "", io.EOF
	}
	var marker [1]byte
	if _, err := io.ReadFull(r.src, marker[:]); err != nil {
		r.setErr(fmt.Errorf("%w: truncated before trailer: %v", ErrFormat, err))
		return "", r.err
	}
	switch marker[0] {
	case trailerMarker:
		r.done = true
		r.payload, r.pos, r.name = nil, 0, ""
		return "", io.EOF
	case sectionMarker:
	default:
		r.setErr(fmt.Errorf("%w: bad section marker %#x", ErrFormat, marker[0]))
		return "", r.err
	}
	br := byteReaderFor(r.src)
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen == 0 || nameLen > maxNameLen {
		r.setErr(fmt.Errorf("%w: bad section name length", ErrFormat))
		return "", r.err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r.src, name); err != nil {
		r.setErr(fmt.Errorf("%w: truncated section name: %v", ErrFormat, err))
		return "", r.err
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil || plen > maxSectionBytes {
		r.setErr(fmt.Errorf("%w: bad section length for %q", ErrFormat, name))
		return "", r.err
	}
	// Read the payload incrementally: a corrupted length on a short
	// stream fails after copying what is actually there, instead of
	// pre-allocating the claimed size.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r.src, int64(plen)); err != nil {
		r.setErr(fmt.Errorf("%w: truncated payload of %q: %v", ErrFormat, name, err))
		return "", r.err
	}
	var crc [4]byte
	if _, err := io.ReadFull(r.src, crc[:]); err != nil {
		r.setErr(fmt.Errorf("%w: truncated CRC of %q: %v", ErrFormat, name, err))
		return "", r.err
	}
	if got, want := crc32.ChecksumIEEE(buf.Bytes()), binary.LittleEndian.Uint32(crc[:]); got != want {
		r.setErr(fmt.Errorf("%w: CRC mismatch in section %q", ErrFormat, name))
		return "", r.err
	}
	r.payload = buf.Bytes()
	r.pos = 0
	r.name = string(name)
	return r.name, nil
}

// byteReaderFor adapts src for binary.ReadUvarint without buffering ahead
// (a bufio.Reader would swallow bytes the section reader needs).
func byteReaderFor(src io.Reader) io.ByteReader {
	if br, ok := src.(io.ByteReader); ok {
		return br
	}
	return oneByteReader{src}
}

type oneByteReader struct{ r io.Reader }

func (o oneByteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(o.r, b[:])
	return b[0], err
}

// Remaining reports the unread bytes left in the current section.
func (r *Reader) Remaining() int { return len(r.payload) - r.pos }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.setErr(fmt.Errorf("%w: section %q exhausted (need %d bytes, have %d)", ErrFormat, r.name, n, r.Remaining()))
		return nil
	}
	p := r.payload[r.pos : r.pos+n]
	r.pos += n
	return p
}

// U64 reads a fixed-width 64-bit value.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// F64 reads a float64 bit-exactly.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte, rejecting values other than 0 and 1.
func (r *Reader) Bool() bool {
	p := r.take(1)
	if p == nil {
		return false
	}
	switch p[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.setErr(fmt.Errorf("%w: bad bool byte %#x in section %q", ErrFormat, p[0], r.name))
		return false
	}
}

// Uvarint reads a variable-length unsigned value.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.payload[r.pos:])
	if n <= 0 {
		r.setErr(fmt.Errorf("%w: bad varint in section %q", ErrFormat, r.name))
		return 0
	}
	r.pos += n
	return v
}

// Count reads a Uvarint and validates it as an element count bounded by
// max, the guard every repeated-field reader needs against corrupted or
// hostile streams.
func (r *Reader) Count(max int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if max >= 0 && v > uint64(max) {
		r.setErr(fmt.Errorf("%w: count %d exceeds limit %d in section %q", ErrFormat, v, max, r.name))
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte slice of at most max bytes. The
// returned slice is a fresh copy.
func (r *Reader) Bytes(max int) []byte {
	n := r.Count(max)
	p := r.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// String reads a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string {
	n := r.Count(max)
	p := r.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// Begin verifies a component boundary written by Writer.Begin: the name
// and schema version must match exactly.
func (r *Reader) Begin(name string, version uint64) error {
	got := r.String(maxNameLen)
	ver := r.Uvarint()
	if r.err != nil {
		return r.err
	}
	if got != name {
		r.setErr(fmt.Errorf("%w: expected component %q, found %q in section %q", ErrFormat, name, got, r.name))
		return r.err
	}
	if ver != version {
		r.setErr(fmt.Errorf("%w: component %q version %d, this build reads %d", ErrVersion, name, ver, version))
		return r.err
	}
	return nil
}

// --- Inspection ---

// SectionInfo describes one section for `firesim snap inspect`.
type SectionInfo struct {
	// Name is the section (component) name.
	Name string
	// Bytes is the payload size.
	Bytes int
}

// Inspect reads the stream's header and section table without
// interpreting any payload. It validates framing, CRCs and the trailer,
// so a clean Inspect proves the stream is structurally intact.
func Inspect(src io.Reader) (Header, []SectionInfo, error) {
	r, h, err := NewReader(src)
	if err != nil {
		return Header{}, nil, err
	}
	var infos []SectionInfo
	for {
		name, err := r.Next()
		if err == io.EOF {
			return h, infos, nil
		}
		if err != nil {
			return h, infos, err
		}
		infos = append(infos, SectionInfo{Name: name, Bytes: r.Remaining()})
	}
}
