package token

import "repro/internal/snapshot"

// maxBatchCycles bounds the window size a restored batch may claim. Real
// batches are at most one link latency wide; the cap only exists so a
// corrupted stream cannot request absurd allocations.
const maxBatchCycles = 1 << 24

// Save implements snapshot.Snapshotter.
func (b *Batch) Save(w *snapshot.Writer) error { return b.state(snapshot.Encode(w)) }

// Restore implements snapshot.Snapshotter.
func (b *Batch) Restore(r *snapshot.Reader) error { return b.state(snapshot.Decode(r)) }

// state lists the batch: the window size, then each occupied slot as
// (offset, data, flags). Slots are in strictly increasing offset order,
// so the encoding is canonical — equal batches produce equal bytes.
// Every invariant a live batch holds is checked: positive window, slot
// count within the window, offsets strictly increasing and in range,
// stored tokens valid.
func (b *Batch) state(s *snapshot.State) error {
	snapshot.Uvarint(s, &b.N)
	s.Check(b.N > 0 && b.N <= maxBatchCycles, "token: batch window out of range")
	prev, ok := int32(-1), true
	snapshot.Slice(s, &b.Slots, b.N, func(sl *Slot) {
		snapshot.Uvarint(s, &sl.Offset)
		s.U64(&sl.Tok.Data)
		var flags uint64
		if sl.Tok.Valid {
			flags |= 1
		}
		if sl.Tok.Last {
			flags |= 2
		}
		snapshot.Uvarint(s, &flags)
		if s.Decoding() {
			sl.Tok.Valid, sl.Tok.Last = flags&1 != 0, flags&2 != 0
		}
		ok = ok && sl.Offset > prev && int(sl.Offset) < b.N && flags&1 != 0 && flags&^3 == 0
		prev = sl.Offset
	})
	s.Check(ok, "token: slot offsets out of order or past the window, or a stored token invalid")
	return s.Err()
}
