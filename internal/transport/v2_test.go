package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/token"
)

// The v2 fixed-width batch codec (13 bytes per occupied slot) is no longer
// on any product path: the bridge speaks v3 (codec.go). It is kept here
// verbatim as the semantic oracle for the v3 codec's round-trip test and
// fuzzer.

// writeBatch encodes a batch to w.
func writeBatch(w io.Writer, b *token.Batch) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(b.N))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(b.Occupied()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: write header: %w", err)
	}
	var rec [13]byte
	var err error
	b.Each(func(offset int, tok token.Token) {
		binary.BigEndian.PutUint32(rec[0:4], uint32(offset))
		binary.BigEndian.PutUint64(rec[4:12], tok.Data)
		var flags byte
		if tok.Valid {
			flags |= 1
		}
		if tok.Last {
			flags |= 2
		}
		rec[12] = flags
		if _, werr := w.Write(rec[:]); werr != nil && err == nil {
			err = fmt.Errorf("transport: write slot: %w", werr)
		}
	})
	return err
}

// readBatch decodes a batch from r into dst (which is Reset first).
func readBatch(r io.Reader, dst *token.Batch) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("transport: read header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(hdr[0:4]))
	count := int(binary.BigEndian.Uint32(hdr[4:8]))
	if n <= 0 || count < 0 || count > maxFlits || count > n {
		return fmt.Errorf("transport: corrupt batch header (n=%d, slots=%d)", n, count)
	}
	dst.Reset(n)
	var rec [13]byte
	prev := -1
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return fmt.Errorf("transport: read slot: %w", err)
		}
		off := int(int32(binary.BigEndian.Uint32(rec[0:4])))
		tok := token.Token{
			Data:  binary.BigEndian.Uint64(rec[4:12]),
			Valid: rec[12]&1 != 0,
			Last:  rec[12]&2 != 0,
		}
		if off < 0 || off >= n {
			return fmt.Errorf("transport: corrupt slot offset %d", off)
		}
		// A well-formed batch stores slots in strictly increasing offset
		// order; a duplicate or out-of-order offset means the stream is
		// corrupt. Rejecting it here (rather than letting Put panic or a
		// later slot shadow an earlier one) keeps corrupt peers from
		// crashing or silently perturbing the simulation.
		if off <= prev {
			return fmt.Errorf("transport: corrupt batch: slot offset %d after %d (duplicate or out of order)", off, prev)
		}
		prev = off
		// writeBatch only ever emits valid tokens with flag bits 0-1, so
		// anything else is stream corruption.
		if rec[12] > 3 || !tok.Valid {
			return fmt.Errorf("transport: corrupt slot flags %#x at offset %d", rec[12], off)
		}
		dst.Put(off, tok)
	}
	return nil
}

// encode is a test helper that panics on the (impossible) in-memory
// write failure.
func encode(b *token.Batch) []byte {
	var buf bytes.Buffer
	if err := writeBatch(&buf, b); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
