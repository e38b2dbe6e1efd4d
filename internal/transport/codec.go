package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/token"
)

// Wire codec v3: run-length-encoded batch frames.
//
// The v2 codec (now only a test oracle, v2_test.go) spent 13
// bytes per occupied slot — a 4-byte absolute offset, 8 data bytes and a
// flag byte — plus a fixed 16-byte header per frame, and issues one
// buffered Write per slot. Both common cases waste most of that: an idle
// link ships empty batches (16 header bytes for zero payload), and an
// active link ships contiguous bursts whose offsets differ by exactly 1
// with identical flags.
//
// A v3 frame encodes the batch as runs of consecutive slots:
//
//	uvarint seq                         absolute frame sequence number
//	uvarint N                           cycles covered by the batch
//	uvarint runCount                    number of runs that follow
//	per run:
//	  uvarint gap                       run start − end of previous run
//	  uvarint runLen<<1 | lastBit       slots in the run, shared Last flag
//	  runLen × 8-byte big-endian data   one word per slot
//
// A run is a maximal span of slots at consecutive offsets sharing one
// Last flag; Valid is implicit (stored tokens are always valid, exactly
// the invariant the v2 decoder enforces). The previous-run end starts at
// offset 0, so gaps are non-negative by construction and overlapping or
// reordered runs are unrepresentable. The sequence number is encoded as
// its absolute value — not a delta — so the bridge's per-frame sequence
// check compares it directly with the batch it expects.
//
// Costs: an empty batch is 3–4 bytes (vs 16); a dense contiguous batch
// is ~8.2 bytes/slot (vs 13); the whole frame is appended to one scratch
// buffer and written with a single Write.

// maxBatchCycles bounds the decoded N as a sanity check against corrupt
// streams; it matches the v2 codec's implicit uint32 offset ceiling.
const maxBatchCycles = 1 << 32

// maxSlots bounds decoded batch occupancy as a sanity check against
// corrupt streams.
const maxSlots = 1 << 24

// frameWireBytes is the on-wire size one sequenced batch frame had under
// the v2 codec: 8-byte sequence header, 8-byte batch header, 13 bytes per
// occupied slot. The bridge prices its precodec (baseline) accounting with
// it; it is not what crosses the wire.
func frameWireBytes(slots int) uint64 { return 8 + 8 + 13*uint64(slots) }

// appendFrame appends the complete v3 encoding of one sequenced batch
// frame to dst and returns the extended slice. It performs no I/O and no
// allocation beyond growing dst.
func appendFrame(dst []byte, seq uint64, b *token.Batch) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(b.N))
	slots := b.Slots
	runs := 0
	for i := 0; i < len(slots); i = runEnd(slots, i) {
		runs++
	}
	dst = binary.AppendUvarint(dst, uint64(runs))
	prev := 0
	for i := 0; i < len(slots); {
		j := runEnd(slots, i)
		start := int(slots[i].Offset)
		dst = binary.AppendUvarint(dst, uint64(start-prev))
		desc := uint64(j-i) << 1
		if slots[i].Tok.Last {
			desc |= 1
		}
		dst = binary.AppendUvarint(dst, desc)
		for k := i; k < j; k++ {
			dst = binary.BigEndian.AppendUint64(dst, slots[k].Tok.Data)
		}
		prev = start + (j - i)
		i = j
	}
	return dst
}

// runEnd returns the index one past the maximal run starting at i: slots
// at consecutive offsets sharing the Last flag of slots[i].
func runEnd(slots []token.Slot, i int) int {
	j := i + 1
	for j < len(slots) && slots[j].Offset == slots[j-1].Offset+1 && slots[j].Tok.Last == slots[i].Tok.Last {
		j++
	}
	return j
}

// readFrameSeq reads a frame's leading sequence number. io.EOF before the
// first byte is a clean close and passes through; a stream ending inside
// the varint is a torn frame and surfaces as io.ErrUnexpectedEOF (which
// binary.ReadUvarint already maps).
func readFrameSeq(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

// readBatchV3 decodes a v3 batch body (everything after the sequence
// number) from r into dst, which is Reset first. Malformed input — zero-
// length runs, slot totals past N or the occupancy ceiling, truncated
// varints or data words — returns an error and never panics; io.EOF
// mid-body surfaces as io.ErrUnexpectedEOF because the frame's sequence
// number was already consumed. The decode is allocation-free once dst's
// slot capacity has warmed up.
func readBatchV3(r *bufio.Reader, dst *token.Batch) error {
	nv, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("transport: read batch cycles: %w", tornEOF(err))
	}
	if nv == 0 || nv > maxBatchCycles {
		return fmt.Errorf("transport: corrupt batch: covers %d cycles", nv)
	}
	n := int(nv)
	runs, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("transport: read run count: %w", tornEOF(err))
	}
	// Every run carries at least one slot, so the run count is bounded by
	// the same occupancy ceiling as the slots themselves.
	if runs > maxSlots {
		return fmt.Errorf("transport: corrupt batch: %d runs", runs)
	}
	dst.Reset(n)
	next := 0 // one past the previous run's end
	total := 0
	for ri := uint64(0); ri < runs; ri++ {
		gap, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("transport: read run gap: %w", tornEOF(err))
		}
		desc, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("transport: read run descriptor: %w", tornEOF(err))
		}
		runLen := desc >> 1
		last := desc&1 != 0
		if runLen == 0 {
			return fmt.Errorf("transport: corrupt batch: empty run %d", ri)
		}
		if gap > uint64(n) || runLen > uint64(n) {
			return fmt.Errorf("transport: corrupt batch: run %d at gap %d, length %d exceeds %d cycles", ri, gap, runLen, n)
		}
		start := next + int(gap)
		end := start + int(runLen)
		if end > n {
			return fmt.Errorf("transport: corrupt batch: run %d spans [%d,%d) past %d cycles", ri, start, end, n)
		}
		total += int(runLen)
		if total > maxSlots {
			return fmt.Errorf("transport: corrupt batch: %d slots", total)
		}
		for off := start; off < end; off++ {
			p, err := r.Peek(8)
			if err != nil {
				return fmt.Errorf("transport: read run data: %w", tornEOF(err))
			}
			dst.Put(off, token.Token{
				Data:  binary.BigEndian.Uint64(p),
				Valid: true,
				Last:  last,
			})
			r.Discard(8)
		}
		next = end
	}
	return nil
}

// tornEOF maps a clean EOF inside a frame body to io.ErrUnexpectedEOF:
// the caller has already consumed part of the frame, so the stream ending
// here is a truncation, not a graceful close.
func tornEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
