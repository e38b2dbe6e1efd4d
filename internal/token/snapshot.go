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

// state lists the batch: the window size, then each occupied cycle as
// (offset, data, flags), flit by flit in offset order whatever the runs
// are, so the encoding is canonical — equal batches produce equal bytes.
// Every invariant a live batch holds is checked: positive window, flit
// count within the window, offsets strictly increasing and in range,
// stored tokens valid. Decoding rebuilds the runs with Put.
func (b *Batch) state(s *snapshot.State) error {
	snapshot.Uvarint(s, &b.N)
	s.Check(b.N > 0 && b.N <= maxBatchCycles, "token: batch window out of range")
	n := len(b.Data)
	s.Count(&n, b.N)
	src := *b
	if s.Decoding() {
		b.Runs, b.Data = nil, make([]uint64, 0, n)
	}
	prev, ok := int32(-1), true
	ri, j := 0, int32(0) // encoding cursor: run, flit within it
	for i := 0; i < n && s.Err() == nil; i++ {
		var off int32
		var data, flags uint64
		if !s.Decoding() {
			r := src.Runs[ri]
			off, data, flags = r.Off+j, src.Data[i], 1
			if j++; j == r.Len {
				if r.Last {
					flags |= 2
				}
				ri, j = ri+1, 0
			}
		}
		snapshot.Uvarint(s, &off)
		s.U64(&data)
		snapshot.Uvarint(s, &flags)
		ok = ok && off > prev && int(off) < b.N && flags&1 != 0 && flags&^3 == 0
		prev = off
		if ok && s.Decoding() {
			b.Put(int(off), Token{Data: data, Valid: true, Last: flags&2 != 0})
		}
	}
	s.Check(ok, "token: flit offsets out of order or past the window, or a stored token invalid")
	return s.Err()
}
